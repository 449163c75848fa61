// Ablation bench — the design choices DESIGN.md calls out:
//  1. LSB policy for elementary 2x2 modules (conservative/moderate/aggressive)
//  2. synthesis optimization on/off in the energy model (optimized vs naive)
//  3. MWI window 30 (paper's 150 ms) vs 32 (shift-friendly divide)
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/structure.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/explore/energy_model.hpp"
#include "xbs/metrics/peaks.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/report/table.hpp"

namespace {

using namespace xbs;

double mean_mult_error(ApproxPolicy policy, int k, MultKind kind) {
  const arith::RecursiveMultiplier m(
      arith::MultiplierConfig{16, k, AdderKind::Approx5, kind, policy});
  Rng rng(42);
  double err = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const u64 a = rng.next_u64() & 0xFFFF;
    const u64 b = rng.next_u64() & 0xFFFF;
    err += std::abs(static_cast<double>(m.multiply_u(a, b)) - static_cast<double>(a * b));
  }
  return err / trials;
}

int approx_elem_count(ApproxPolicy policy, int k) {
  const auto s = arith::compute_mult_structure(16);
  int n = 0;
  for (const auto& e : s.elems) n += arith::elem_is_approx(policy, e.out_offset, k) ? 1 : 0;
  return n;
}

}  // namespace

int main() {
  using report::fmt;
  using report::fmt_factor;

  std::cout << "=== Ablation 1: elementary-module LSB policy (16x16, Add5+V2) ===\n\n";
  {
    report::AsciiTable t({"k", "Cons. elems", "Mod. elems", "Aggr. elems",
                          "Cons. mean |err|", "Mod. (default)", "Aggr."});
    for (const int k : {4, 5, 8, 9, 12, 13, 16}) {
      t.add_row({std::to_string(k), std::to_string(approx_elem_count(ApproxPolicy::Conservative, k)),
                 std::to_string(approx_elem_count(ApproxPolicy::Moderate, k)),
                 std::to_string(approx_elem_count(ApproxPolicy::Aggressive, k)),
                 fmt(mean_mult_error(ApproxPolicy::Conservative, k, MultKind::V2), 1),
                 fmt(mean_mult_error(ApproxPolicy::Moderate, k, MultKind::V2), 1),
                 fmt(mean_mult_error(ApproxPolicy::Aggressive, k, MultKind::V2), 1)});
    }
    t.print(std::cout);
    std::cout << "Elementary output offsets are even, so Moderate and Aggressive coincide at\n"
                 "even k (the paper only sweeps even k) and differ at odd k; Conservative\n"
                 "trails by one anti-diagonal of the sub-multiplier grid. Error is dominated\n"
                 "by the wiring-adder LSB replacement either way: every paper conclusion is\n"
                 "policy-robust.\n\n";
  }

  std::cout << "=== Ablation 2: synthesis optimization in the energy model ===\n\n";
  {
    const explore::StageEnergyModel opt(explore::StageEnergyModel::Mode::Optimized);
    const explore::StageEnergyModel naive(explore::StageEnergyModel::Mode::Naive);
    report::AsciiTable t({"Stage", "Naive acc. [fJ]", "Optimized acc. [fJ]", "Fold factor",
                          "Naive red. @k16", "Optimized red. @k16"});
    for (const auto s : pantompkins::kAllStages) {
      const arith::StageArithConfig acc{};
      const auto k16 = arith::StageArithConfig::uniform(16);
      t.add_row({std::string(to_string(s)), fmt(naive.stage_energy_fj(s, acc), 1),
                 fmt(opt.stage_energy_fj(s, acc), 1),
                 fmt_factor(naive.stage_energy_fj(s, acc) / opt.stage_energy_fj(s, acc), 1),
                 fmt_factor(naive.stage_energy_reduction(s, k16), 2),
                 fmt_factor(opt.stage_energy_reduction(s, k16), 2)});
    }
    t.print(std::cout);
    std::cout << "Without constant folding (naive), reductions saturate at width/(width-k);\n"
                 "the optimized model reproduces the paper's larger per-stage factors and the\n"
                 "differentiator's 'all active paths truncated' behaviour.\n\n";
  }

  std::cout << "=== Ablation 3: MWI window 30 (paper, 150 ms) vs 32 (shift-friendly) ===\n\n";
  {
    // Run both windows over a real squared-slope signal and quantify the
    // difference the window choice makes before the adaptive detector.
    const auto records = xbs::bench::workload(1, 10000);
    const pantompkins::PanTompkinsPipeline pipe;  // accurate front pipeline
    const auto res = pipe.run_filters(records[0].adu);

    arith::ExactKernel k30, k32;
    pantompkins::MwiStage w30(30, 5, k30);
    pantompkins::MwiStage w32(32, 5, k32);
    std::vector<i32> y30, y32;
    w30.process_chunk(res.sqr, y30);
    w32.process_chunk(res.sqr, y32);
    double num = 0.0, den = 0.0;
    double peak30 = 0.0, peak32 = 0.0;
    for (std::size_t i = 0; i < res.sqr.size(); ++i) {
      const double a = y30[i];
      const double b = y32[i];
      num += (a - b) * (a - b);
      den += a * a;
      peak30 = std::max(peak30, a);
      peak32 = std::max(peak32, b);
    }
    report::AsciiTable t({"Metric", "Value"});
    t.add_row({"relative RMS difference", fmt(100.0 * std::sqrt(num / den), 2) + "%"});
    t.add_row({"peak ratio (w32/w30)", fmt(peak32 / peak30, 4)});
    t.print(std::cout);
    std::cout << "The window choice perturbs the MWI waveform by ~10% RMS (mostly window-edge\n"
                 "timing) while the peak amplitudes the detector thresholds against differ by\n"
                 "well under 1%; the library keeps the paper's 150 ms window with the cheap\n"
                 ">>5 divide.\n";
  }
  return 0;
}
