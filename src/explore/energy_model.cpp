#include "xbs/explore/energy_model.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "xbs/hwmodel/block_cost.hpp"
#include "xbs/netlist/builders.hpp"
#include "xbs/netlist/optimizer.hpp"
#include "xbs/netlist/synth_report.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::explore {
namespace {

using pantompkins::Stage;

/// Live word width feeding the MWI adder tree: squared 16-bit slope values
/// scaled by >> kSqrShift occupy up to 30 - kSqrShift bits.
constexpr int kMwiInputBits = 30 - pantompkins::kSqrShift;

std::vector<u32> coeff_magnitudes(Stage s) {
  std::vector<u32> mags;
  switch (s) {
    case Stage::Lpf:
      for (const int t : pantompkins::kLpfTaps) mags.push_back(static_cast<u32>(std::abs(t)));
      break;
    case Stage::Hpf:
      for (const int t : pantompkins::kHpfTaps) mags.push_back(static_cast<u32>(std::abs(t)));
      break;
    case Stage::Der:
      for (const int t : pantompkins::kDerTaps) mags.push_back(static_cast<u32>(std::abs(t)));
      break;
    default:
      break;
  }
  return mags;
}

}  // namespace

StageEnergyModel::StageEnergyModel(Mode mode) : mode_(mode) {}

hwmodel::Cost StageEnergyModel::compute(Stage s, const arith::StageArithConfig& cfg) const {
  if (mode_ == Mode::Naive) {
    const auto& inv = pantompkins::stage_inventory(s);
    return hwmodel::stage_cost(inv.n_adders, inv.n_mults, cfg);
  }
  netlist::Netlist nl = [&] {
    switch (s) {
      case Stage::Sqr:
        return netlist::build_squarer_stage(cfg.mult);
      case Stage::Mwi:
        return netlist::build_mwi_stage(pantompkins::kMwiWindow, cfg.adder, kMwiInputBits);
      default:
        return netlist::build_fir_stage(netlist::FirStageSpec{coeff_magnitudes(s), cfg});
    }
  }();
  netlist::optimize(nl);
  hwmodel::Cost cost = netlist::report(nl).cost;
  if (mode_ == Mode::PowerDelay) {
    // E = P * t: total switching power times the critical combinational path.
    // Units: uW * ns = fJ.
    cost.energy_fj = cost.power_uw * cost.delay_ns;
  }
  return cost;
}

hwmodel::Cost StageEnergyModel::stage_cost(Stage s, const arith::StageArithConfig& cfg) const {
  return *costs_.get({s, cfg}, [&] { return std::make_shared<hwmodel::Cost>(compute(s, cfg)); });
}

double StageEnergyModel::stage_energy_fj(Stage s, const arith::StageArithConfig& cfg) const {
  return stage_cost(s, cfg).energy_fj;
}

double StageEnergyModel::design_energy_fj(const Design& d) const {
  double total = 0.0;
  for (const Stage s : pantompkins::kAllStages) {
    const auto sd = find_stage(d, s);
    const arith::StageArithConfig cfg =
        sd ? sd->arith_config() : arith::StageArithConfig{};  // accurate default
    total += stage_energy_fj(s, cfg);
  }
  return total;
}

double StageEnergyModel::accurate_energy_fj() const { return design_energy_fj(Design{}); }

double StageEnergyModel::energy_reduction(const Design& d) const {
  const double approx = design_energy_fj(d);
  if (approx <= 0.0) return std::numeric_limits<double>::infinity();
  return accurate_energy_fj() / approx;
}

double StageEnergyModel::stage_energy_reduction(Stage s,
                                                const arith::StageArithConfig& cfg) const {
  const double approx = stage_energy_fj(s, cfg);
  const double acc = stage_energy_fj(s, arith::StageArithConfig{});
  if (approx <= 0.0) return std::numeric_limits<double>::infinity();
  return acc / approx;
}

}  // namespace xbs::explore
