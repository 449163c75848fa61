// Cross-validation of the netlist simulator against the fast behavioural
// models — the software analogue of the paper's ModelSim <-> MATLAB
// cross-validation loop (Fig. 9). Every (kind, k) configuration must agree
// bit-for-bit.
#include <gtest/gtest.h>

#include <tuple>

#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/netlist/builders.hpp"
#include "xbs/netlist/optimizer.hpp"

namespace xbs {
namespace {

using arith::AdderConfig;
using arith::MultiplierConfig;
using arith::RecursiveMultiplier;
using arith::RippleCarryAdder;

u64 simulate_rca(const AdderConfig& cfg, u64 a, u64 b) {
  netlist::Netlist nl;
  const auto abus = nl.new_input_bus(cfg.width);
  const auto bbus = nl.new_input_bus(cfg.width);
  const auto out = netlist::build_rca(nl, cfg, abus, bbus);
  for (const auto n : out.sum) nl.mark_output(n);
  nl.mark_output(out.carry_out);
  const u64 words[2] = {a, b};
  const int widths[2] = {cfg.width, cfg.width};
  return nl.simulate_word(words, widths);  // sum | cout << width
}

/// A multiplier netlist, built once and simulated per operand pair.
class MultNetlist {
 public:
  explicit MultNetlist(const MultiplierConfig& cfg) : width_(cfg.width) {
    const auto abus = nl_.new_input_bus(cfg.width);
    const auto bbus = nl_.new_input_bus(cfg.width);
    const auto out = netlist::build_multiplier(nl_, cfg, abus, bbus);
    for (const auto n : out) nl_.mark_output(n);
  }

  u64 operator()(u64 a, u64 b) const {
    const u64 words[2] = {a, b};
    const int widths[2] = {width_, width_};
    return nl_.simulate_word(words, widths);
  }

 private:
  netlist::Netlist nl_;
  int width_;
};

class RcaNetlistXval : public ::testing::TestWithParam<std::tuple<AdderKind, int>> {};

TEST_P(RcaNetlistXval, NetlistMatchesBehavioural) {
  const auto [kind, k] = GetParam();
  const AdderConfig cfg{16, k, kind, 0};
  const RippleCarryAdder behavioural(cfg);
  Rng rng(31 + static_cast<u64>(k));
  for (int t = 0; t < 150; ++t) {
    const u64 a = rng.next_u64() & 0xFFFF;
    const u64 b = rng.next_u64() & 0xFFFF;
    const auto want = behavioural.add_u(a, b);
    const u64 got = simulate_rca(cfg, a, b);
    EXPECT_EQ(got & 0xFFFF, want.sum) << "a=" << a << " b=" << b;
    EXPECT_EQ((got >> 16) & 1, want.carry_out ? 1u : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLsbs, RcaNetlistXval,
    ::testing::Combine(::testing::ValuesIn(kAllAdderKinds), ::testing::Values(0, 3, 8, 16)));

// Every adder kind: the netlist is the independent oracle for the
// closed-form adds inside the behavioural multiplier.
class MultNetlistXval
    : public ::testing::TestWithParam<std::tuple<AdderKind, MultKind, ApproxPolicy, int>> {};

TEST_P(MultNetlistXval, NetlistMatchesBehavioural16x16) {
  const auto [add_kind, mult_kind, policy, k] = GetParam();
  const MultiplierConfig cfg{16, k, add_kind, mult_kind, policy};
  const RecursiveMultiplier behavioural(cfg);
  const MultNetlist netlist(cfg);
  Rng rng(77 + static_cast<u64>(k));
  for (int t = 0; t < 60; ++t) {
    const u64 a = rng.next_u64() & 0xFFFF;
    const u64 b = rng.next_u64() & 0xFFFF;
    EXPECT_EQ(netlist(a, b), behavioural.multiply_u(a, b)) << "a=" << a << " b=" << b << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultNetlistXval,
    ::testing::Combine(::testing::ValuesIn(kAllAdderKinds),
                       ::testing::Values(MultKind::Accurate, MultKind::V1, MultKind::V2),
                       ::testing::Values(ApproxPolicy::Conservative, ApproxPolicy::Moderate,
                                         ApproxPolicy::Aggressive),
                       ::testing::Values(0, 4, 10, 16)));

TEST(MultNetlistXvalSmall, ExhaustiveWidth4AllKinds) {
  for (const AdderKind add : kAllAdderKinds) {
    for (const MultKind mult : kAllMultKinds) {
      for (const int k : {0, 2, 4}) {
        const MultiplierConfig cfg{4, k, add, mult, ApproxPolicy::Moderate};
        const RecursiveMultiplier behavioural(cfg);
        const MultNetlist netlist(cfg);
        for (u64 a = 0; a < 16; ++a) {
          for (u64 b = 0; b < 16; ++b) {
            EXPECT_EQ(netlist(a, b), behavioural.multiply_u(a, b))
                << "a=" << a << " b=" << b << " k=" << k;
          }
        }
      }
    }
  }
}

// Width 32, the widest multiplier: its top-level combine adds 64-bit
// partial products, up to a fully approximate 64-bit adder at k = 64.
TEST(MultNetlistXvalWide, Width32AllAdderKinds) {
  for (const AdderKind add : kAllAdderKinds) {
    for (const int k : {0, 16, 64}) {
      const MultiplierConfig cfg{32, k, add, MultKind::V1, ApproxPolicy::Moderate};
      const RecursiveMultiplier behavioural(cfg);
      const MultNetlist netlist(cfg);
      Rng rng(320 + static_cast<u64>(k));
      for (int t = 0; t < 20; ++t) {
        const u64 a = rng.next_u64() & 0xFFFFFFFF;
        const u64 b = rng.next_u64() & 0xFFFFFFFF;
        EXPECT_EQ(netlist(a, b), behavioural.multiply_u(a, b))
            << "kind=" << static_cast<int>(add) << " k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
}

// The synthesis optimizer must never change a netlist's function.
class OptimizePreservesFunction
    : public ::testing::TestWithParam<std::tuple<AdderKind, MultKind, int>> {};

TEST_P(OptimizePreservesFunction, Multiplier16WithConstOperandB) {
  const auto [add_kind, mult_kind, k] = GetParam();
  const MultiplierConfig cfg{16, k, add_kind, mult_kind, ApproxPolicy::Moderate};
  // Constant coefficient operand (like the FIR stages) to trigger heavy
  // folding, then compare optimized vs unoptimized simulation.
  for (const u64 coeff : {u64{1}, u64{2}, u64{3}, u64{6}, u64{31}}) {
    netlist::Netlist nl;
    const auto abus = nl.new_input_bus(16);
    const auto bbus = nl.const_bus(coeff, 16);
    const auto out = netlist::build_multiplier(nl, cfg, abus, bbus);
    for (const auto n : out) nl.mark_output(n);

    netlist::Netlist opt;  // rebuild + optimize
    {
      const auto abus2 = opt.new_input_bus(16);
      const auto bbus2 = opt.const_bus(coeff, 16);
      const auto out2 = netlist::build_multiplier(opt, cfg, abus2, bbus2);
      for (const auto n : out2) opt.mark_output(n);
      netlist::optimize(opt);
    }
    Rng rng(5 + coeff);
    for (int t = 0; t < 40; ++t) {
      const u64 a = rng.next_u64() & 0xFFFF;
      const u64 words[1] = {a};
      const int widths[1] = {16};
      EXPECT_EQ(opt.simulate_word(words, widths), nl.simulate_word(words, widths))
          << "coeff=" << coeff << " a=" << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizePreservesFunction,
    ::testing::Combine(::testing::Values(AdderKind::Approx2, AdderKind::Approx5),
                       ::testing::Values(MultKind::Accurate, MultKind::V1),
                       ::testing::Values(0, 6, 12)));

}  // namespace
}  // namespace xbs
