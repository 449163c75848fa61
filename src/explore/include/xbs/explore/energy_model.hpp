/// \file energy_model.hpp
/// \brief Per-stage hardware cost model backed by the netlist synthesis flow.
///
/// Stage costs are obtained by building each stage's netlist (coefficients as
/// constants), running the synthesis optimizer (constant propagation + dead
/// logic elimination — what Design Compiler does to the paper's RTL) and
/// pricing the surviving modules with the Table 1 cell data. Results are
/// cached per (stage, arithmetic configuration). A naive structural mode
/// (no optimization) is available for the ablation bench.
#pragma once

#include <utility>

#include "xbs/common/memo.hpp"
#include "xbs/explore/design.hpp"
#include "xbs/hwmodel/cell_library.hpp"

namespace xbs::explore {

/// Cost model over the five Pan-Tompkins stages.
class StageEnergyModel {
 public:
  enum class Mode {
    Optimized,  ///< netlist-built, synthesis-optimized, energy = sum of module
                ///< switching energies (default)
    Naive,      ///< structural roll-up, no optimization
    PowerDelay, ///< netlist-built, synthesis-optimized, energy = total power x
                ///< critical-path delay (the E = P*t accounting; rewards the
                ///< carry-chain cuts of the wiring adder quadratically)
  };

  explicit StageEnergyModel(Mode mode = Mode::Optimized);

  /// Full synthesis cost of one stage under the given configuration.
  [[nodiscard]] hwmodel::Cost stage_cost(pantompkins::Stage s,
                                         const arith::StageArithConfig& cfg) const;

  /// Per-sample energy (fJ) of one configured stage.
  [[nodiscard]] double stage_energy_fj(pantompkins::Stage s,
                                       const arith::StageArithConfig& cfg) const;

  /// Per-sample energy of a whole design (absent stages accurate).
  [[nodiscard]] double design_energy_fj(const Design& d) const;

  /// Energy of the fully accurate pipeline.
  [[nodiscard]] double accurate_energy_fj() const;

  /// Energy-reduction factor of a design vs the accurate pipeline.
  [[nodiscard]] double energy_reduction(const Design& d) const;

  /// Energy-reduction factor of a single stage vs its accurate self.
  [[nodiscard]] double stage_energy_reduction(pantompkins::Stage s,
                                              const arith::StageArithConfig& cfg) const;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

 private:
  using CostKey = std::pair<pantompkins::Stage, arith::StageArithConfig>;

  [[nodiscard]] hwmodel::Cost compute(pantompkins::Stage s,
                                      const arith::StageArithConfig& cfg) const;

  Mode mode_;
  /// The synthesis-cost memo, shared by the parallel exploration workers
  /// (one model serves every shard). Synthesis runs outside its lock, and a
  /// racing duplicate keeps the first published cost.
  mutable common::Memo<CostKey, hwmodel::Cost> costs_;
};

}  // namespace xbs::explore
