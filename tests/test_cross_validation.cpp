// Stage-level cross-validation (paper Fig. 9): the behavioural fixed-point
// FIR stage and the netlist built from the same coefficients must agree on
// the raw accumulator value, for positive-coefficient stages and positive
// inputs (the unsigned core the netlist models).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/netlist/builders.hpp"
#include "xbs/netlist/optimizer.hpp"

namespace xbs {
namespace {

/// Behavioural unsigned FIR accumulator: products via RecursiveMultiplier,
/// chained through a RippleCarryAdder — the same structure the netlist
/// builder emits.
u64 behavioural_fir(const arith::StageArithConfig& cfg, const std::vector<u32>& coeffs,
                    const std::vector<u64>& taps) {
  const auto mult = arith::get_multiplier(cfg.mult);
  const arith::RippleCarryAdder adder(cfg.adder);
  u64 acc = 0;
  bool first = true;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] == 0) continue;
    const u64 p = mult->multiply_u(taps[i], coeffs[i]) & low_mask(32);
    if (first) {
      acc = p;
      first = false;
    } else {
      acc = adder.add_u(acc, p).sum;
    }
  }
  return acc;
}

class FirStageXval : public ::testing::TestWithParam<int> {};

TEST_P(FirStageXval, LpfStageNetlistMatchesBehavioural) {
  const int k = GetParam();
  const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(k);
  const std::vector<u32> coeffs = {1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1};

  netlist::Netlist nl = netlist::build_fir_stage(netlist::FirStageSpec{coeffs, cfg});
  netlist::Netlist opt = netlist::build_fir_stage(netlist::FirStageSpec{coeffs, cfg});
  netlist::optimize(opt);

  Rng rng(400 + static_cast<u64>(k));
  for (int t = 0; t < 25; ++t) {
    std::vector<u64> taps;
    std::vector<int> widths;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      taps.push_back(rng.next_u64() & 0x7FFF);  // positive 15-bit samples
      widths.push_back(16);
    }
    const u64 want = behavioural_fir(cfg, coeffs, taps);
    EXPECT_EQ(nl.simulate_word(taps, widths), want) << "k=" << k;
    EXPECT_EQ(opt.simulate_word(taps, widths), want) << "k=" << k << " (optimized)";
  }
}

INSTANTIATE_TEST_SUITE_P(Lsbs, FirStageXval, ::testing::Values(0, 2, 6, 10, 16));

TEST(MwiStageXval, TreeMatchesBehaviouralTree) {
  // The MWI netlist's balanced reduction must match a behavioural balanced
  // reduction over the same inputs and adder configuration — and so must the
  // kernel's window_sum_n, which MwiStage runs: the tree on the approximate
  // kernel (k = 8, 16), the running sum on the exact one (k = 0).
  for (const int k : {0, 8, 16}) {
    const arith::AdderConfig acfg{32, k, AdderKind::Approx5, 0};
    const int window = 30;
    netlist::Netlist nl = netlist::build_mwi_stage(window, acfg, 16);
    const arith::StageArithConfig kcfg = arith::StageArithConfig::uniform(k);
    ASSERT_EQ(kcfg.adder, acfg);
    const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(kcfg);

    Rng rng(700 + static_cast<u64>(k));
    for (int t = 0; t < 20; ++t) {
      std::vector<u64> inputs;
      std::vector<int> widths;
      for (int i = 0; i < window; ++i) {
        inputs.push_back(rng.next_u64() & 0xFFFF);
        widths.push_back(16);
      }
      // Behavioural balanced tree (same pairwise order).
      const arith::RippleCarryAdder adder(acfg);
      std::vector<u64> terms = inputs;
      while (terms.size() > 1) {
        std::vector<u64> next;
        for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
          next.push_back(adder.add_u(terms[i], terms[i + 1]).sum);
        }
        if (terms.size() % 2 == 1) next.push_back(terms.back());
        terms = std::move(next);
      }
      EXPECT_EQ(nl.simulate_word(inputs, widths), terms[0]) << "k=" << k;

      // One window through the kernel (the 32-bit result, sign-extended).
      const std::vector<i64> padded(inputs.begin(), inputs.end());
      std::vector<i64> sum(1);
      kernel->window_sum_n(static_cast<std::size_t>(window), padded, sum);
      EXPECT_EQ(static_cast<u64>(sum[0]) & low_mask(32), nl.simulate_word(inputs, widths))
          << "k=" << k;
    }

    // Sliding: one call over a longer input, every output against the
    // netlist on its own window.
    const std::size_t n = 40;
    std::vector<u64> stream;
    for (std::size_t i = 0; i < n + window - 1; ++i) stream.push_back(rng.next_u64() & 0xFFFF);
    const std::vector<i64> padded(stream.begin(), stream.end());
    std::vector<i64> sums(n);
    kernel->window_sum_n(static_cast<std::size_t>(window), padded, sums);
    const std::vector<int> widths(static_cast<std::size_t>(window), 16);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<u64> inputs(stream.begin() + static_cast<std::ptrdiff_t>(i),
                                    stream.begin() + static_cast<std::ptrdiff_t>(i) + window);
      EXPECT_EQ(static_cast<u64>(sums[i]) & low_mask(32), nl.simulate_word(inputs, widths))
          << "k=" << k << " output " << i;
    }
  }
}

TEST(SquarerXval, NetlistSquaresLikeBehavioural) {
  for (const int k : {0, 4, 8}) {
    const arith::MultiplierConfig cfg{16, k, AdderKind::Approx5, MultKind::V1,
                                      ApproxPolicy::Moderate};
    netlist::Netlist nl = netlist::build_squarer_stage(cfg);
    const arith::RecursiveMultiplier mult(cfg);
    Rng rng(900 + static_cast<u64>(k));
    for (int t = 0; t < 40; ++t) {
      const u64 x = rng.next_u64() & 0xFFFF;
      const u64 words[1] = {x};
      const int widths[1] = {16};
      EXPECT_EQ(nl.simulate_word(words, widths), mult.multiply_u(x, x)) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace xbs
