// Tests for the approximate ripple-carry adder (paper Fig. 6), including
// exhaustive and property sweeps cross-checking the closed-form evaluation
// against a plain full-adder-by-full-adder reference for every (kind, k)
// configuration.
#include <gtest/gtest.h>

#include <tuple>

#include "xbs/arith/rca.hpp"
#include "xbs/arith/structure.hpp"
#include "xbs/common/rng.hpp"

namespace xbs::arith {
namespace {

/// Reference: simulate every FA from the truth tables, no closed form.
AddResult slow_add(const AdderConfig& cfg, u64 a, u64 b, bool cin) {
  const u64 mask = low_mask(cfg.width);
  a &= mask;
  b &= mask;
  u64 sum = 0;
  bool carry = cin;
  for (int i = 0; i < cfg.width; ++i) {
    const AdderKind kind =
        fa_is_approx(cfg.weight_offset + i, cfg.approx_lsbs) ? cfg.kind : AdderKind::Accurate;
    const FaOut o = full_add(kind, bit_of(a, i), bit_of(b, i), carry);
    sum = with_bit(sum, i, o.sum);
    carry = o.cout;
  }
  return AddResult{sum, carry};
}

TEST(Rca, AccurateMatchesNativeExhaustive8Bit) {
  const RippleCarryAdder adder(AdderConfig{8, 0, AdderKind::Accurate, 0});
  for (u64 a = 0; a < 256; ++a) {
    for (u64 b = 0; b < 256; ++b) {
      const AddResult r = adder.add_u(a, b);
      EXPECT_EQ(r.sum, (a + b) & 0xFF);
      EXPECT_EQ(r.carry_out, ((a + b) >> 8) != 0);
    }
  }
}

TEST(Rca, ZeroApproxLsbsIsAccurateForEveryKind) {
  Rng rng(1);
  for (const AdderKind kind : kAllAdderKinds) {
    const RippleCarryAdder adder(AdderConfig{32, 0, kind, 0});
    for (int t = 0; t < 200; ++t) {
      const u64 a = rng.next_u64() & low_mask(32);
      const u64 b = rng.next_u64() & low_mask(32);
      EXPECT_EQ(adder.add_u(a, b).sum, (a + b) & low_mask(32));
    }
  }
}

TEST(Rca, Ama5LowBitsAreOperandB) {
  const int k = 8;
  const RippleCarryAdder adder(AdderConfig{32, k, AdderKind::Approx5, 0});
  Rng rng(2);
  for (int t = 0; t < 500; ++t) {
    const u64 a = rng.next_u64() & low_mask(32);
    const u64 b = rng.next_u64() & low_mask(32);
    const u64 s = adder.add_u(a, b).sum;
    EXPECT_EQ(s & low_mask(k), b & low_mask(k));
    // Carry into the accurate region is a[k-1] (Cout = A wiring).
    const u64 hi_expected = ((a >> k) + (b >> k) + (bit_of(a, k - 1) ? 1 : 0)) & low_mask(32 - k);
    EXPECT_EQ(s >> k, hi_expected);
  }
}

TEST(Rca, SignedAddWrapsLikeHardware) {
  const RippleCarryAdder adder(AdderConfig{16, 0, AdderKind::Accurate, 0});
  EXPECT_EQ(adder.add_signed(32767, 1), -32768);  // two's complement wrap
  EXPECT_EQ(adder.add_signed(-32768, -1), 32767);
  EXPECT_EQ(adder.add_signed(1000, -250), 750);
}

TEST(Rca, SignedSubViaOnesComplement) {
  const RippleCarryAdder adder(AdderConfig{32, 0, AdderKind::Accurate, 0});
  EXPECT_EQ(adder.sub_signed(100, 42), 58);
  EXPECT_EQ(adder.sub_signed(-100, -42), -58);
  EXPECT_EQ(adder.sub_signed(0, 1), -1);
}

TEST(Rca, InvalidConfigThrows) {
  EXPECT_THROW(RippleCarryAdder(AdderConfig{1, 0, AdderKind::Accurate, 0}),
               std::invalid_argument);
  EXPECT_THROW(RippleCarryAdder(AdderConfig{64, 0, AdderKind::Accurate, 0}),
               std::invalid_argument);
  EXPECT_THROW(RippleCarryAdder(AdderConfig{32, -1, AdderKind::Accurate, 0}),
               std::invalid_argument);
}

TEST(Rca, WeightOffsetShiftsApproxRegion) {
  // With offset 8 and k = 12, only bits 0..3 of this adder are approximate.
  const AdderConfig cfg{16, 12, AdderKind::Approx5, 8};
  const RippleCarryAdder adder(cfg);
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    const u64 a = rng.next_u64() & low_mask(16);
    const u64 b = rng.next_u64() & low_mask(16);
    EXPECT_EQ(adder.add_u(a, b), slow_add(cfg, a, b, false));
  }
}

// Property sweep: fast evaluation == plain truth-table chain for every
// (kind, k) pair, across random vectors and random carry-in.
class RcaCrossCheck : public ::testing::TestWithParam<std::tuple<AdderKind, int>> {};

TEST_P(RcaCrossCheck, FastPathMatchesBitwiseReference) {
  const auto [kind, k] = GetParam();
  const AdderConfig cfg{32, k, kind, 0};
  const RippleCarryAdder adder(cfg);
  Rng rng(1000 + static_cast<u64>(k) * 7 + static_cast<u64>(kind));
  for (int t = 0; t < 400; ++t) {
    const u64 a = rng.next_u64() & low_mask(32);
    const u64 b = rng.next_u64() & low_mask(32);
    const bool cin = (rng.next_u64() & 1) != 0;
    EXPECT_EQ(adder.add_u(a, b, cin), slow_add(cfg, a, b, cin))
        << "kind=" << static_cast<int>(kind) << " k=" << k << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLsbs, RcaCrossCheck,
    ::testing::Combine(::testing::ValuesIn(kAllAdderKinds),
                       ::testing::Values(0, 1, 2, 4, 8, 15, 16, 31, 32)));

// The closed form against the FA chain, exhaustively at small widths: every
// kind, every placement of the approximate region (k in [0, w+1], weight
// offset in [0, w]), every operand pair and carry-in.
TEST(Rca, ClosedFormMatchesFaChainExhaustiveSmallWidths) {
  for (int w = 2; w <= 6; ++w) {
    for (const AdderKind kind : kAllAdderKinds) {
      for (int k = 0; k <= w + 1; ++k) {
        for (int off = 0; off <= w; ++off) {
          const AdderConfig cfg{w, k, kind, off};
          const RippleCarryAdder adder(cfg);
          int mismatches = 0;
          for (u64 a = 0; a < (u64{1} << w); ++a)
            for (u64 b = 0; b < (u64{1} << w); ++b)
              for (const bool cin : {false, true})
                mismatches += adder.add_u(a, b, cin) != slow_add(cfg, a, b, cin) ? 1 : 0;
          EXPECT_EQ(mismatches, 0) << "w=" << w << " kind=" << static_cast<int>(kind)
                                   << " k=" << k << " offset=" << off;
        }
      }
    }
  }
}

// Random vectors at the wide end, up to the 63-bit maximum: the carries and
// masks of the closed form must hold with no bit to spare above the sum.
TEST(Rca, ClosedFormMatchesFaChainRandomWide) {
  Rng rng(4242);
  for (const int w : {32, 63}) {
    for (const AdderKind kind : kAllAdderKinds) {
      for (int t = 0; t < 3000; ++t) {
        const int k = static_cast<int>(rng.uniform_int(0, w + 1));
        const int off = static_cast<int>(rng.uniform_int(0, w));
        const AdderConfig cfg{w, k, kind, off};
        const u64 a = rng.next_u64();
        const u64 b = rng.next_u64();
        const bool cin = (rng.next_u64() & 1) != 0;
        ASSERT_EQ(RippleCarryAdder(cfg).add_u(a, b, cin), slow_add(cfg, a, b, cin))
            << "w=" << w << " kind=" << static_cast<int>(kind) << " k=" << k
            << " offset=" << off << " a=" << a << " b=" << b << " cin=" << cin;
      }
    }
  }
}

}  // namespace
}  // namespace xbs::arith
