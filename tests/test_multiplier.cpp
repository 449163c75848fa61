// Tests for the recursive approximate multiplier (paper Fig. 7).
#include <gtest/gtest.h>

#include <cstdlib>
#include <latch>
#include <thread>
#include <tuple>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/common/rng.hpp"

namespace xbs::arith {
namespace {

TEST(Multiplier, AccurateExhaustive4x4) {
  const RecursiveMultiplier m(MultiplierConfig{4, 0});
  for (u64 a = 0; a < 16; ++a)
    for (u64 b = 0; b < 16; ++b) EXPECT_EQ(m.multiply_u(a, b), a * b);
}

TEST(Multiplier, AccurateExhaustive8x8) {
  const RecursiveMultiplier m(MultiplierConfig{8, 0});
  for (u64 a = 0; a < 256; ++a)
    for (u64 b = 0; b < 256; ++b) EXPECT_EQ(m.multiply_u(a, b), a * b);
}

TEST(Multiplier, AccurateRandom16x16) {
  const RecursiveMultiplier m(MultiplierConfig{16, 0});
  Rng rng(5);
  for (int t = 0; t < 2000; ++t) {
    const u64 a = rng.next_u64() & 0xFFFF;
    const u64 b = rng.next_u64() & 0xFFFF;
    EXPECT_EQ(m.multiply_u(a, b), a * b);
  }
}

TEST(Multiplier, SignedMultiplyViaSignMagnitude) {
  const RecursiveMultiplier m(MultiplierConfig{16, 0});
  EXPECT_EQ(m.multiply_signed(-3, 7), -21);
  EXPECT_EQ(m.multiply_signed(-3, -7), 21);
  EXPECT_EQ(m.multiply_signed(3, -7), -21);
  EXPECT_EQ(m.multiply_signed(0, -7), 0);
  EXPECT_EQ(m.multiply_signed(-32768, 2), -65536);
  EXPECT_EQ(m.multiply_signed(32767, 32767), i64{32767} * 32767);
}

TEST(Multiplier, InvalidWidthThrows) {
  EXPECT_THROW(RecursiveMultiplier(MultiplierConfig{3, 0}), std::invalid_argument);
  EXPECT_THROW(RecursiveMultiplier(MultiplierConfig{64, 0}), std::invalid_argument);
  EXPECT_THROW(RecursiveMultiplier(MultiplierConfig{16, 40}), std::invalid_argument);
}

TEST(Multiplier, CacheReturnsSharedInstance) {
  const MultiplierConfig cfg{16, 6, AdderKind::Approx5, MultKind::V1, ApproxPolicy::Moderate};
  const auto a = get_multiplier(cfg);
  const auto b = get_multiplier(cfg);
  EXPECT_EQ(a.get(), b.get());
  MultiplierConfig other = cfg;
  other.approx_lsbs = 8;
  EXPECT_NE(get_multiplier(other).get(), a.get());
}

/// Approximation error must be confined to (roughly) the approximated LSB
/// region: with k approximated output LSBs the error magnitude is bounded by
/// a small multiple of 2^k (carry displacement can nudge one bit above).
/// Width 32 is the widest multiplier: its top-level combine adds 64-bit
/// partial products, one bit wider than a RippleCarryAdder allows.
class MultErrorBound
    : public ::testing::TestWithParam<std::tuple<int, AdderKind, MultKind, ApproxPolicy, int>> {};

TEST_P(MultErrorBound, ErrorConfinedToApproxRegion) {
  const auto [width, add_kind, mult_kind, policy, k] = GetParam();
  const RecursiveMultiplier m(MultiplierConfig{width, k, add_kind, mult_kind, policy});
  Rng rng(7000 + static_cast<u64>(k));
  u64 max_err = 0;
  for (int t = 0; t < 800; ++t) {
    const u64 a = rng.next_u64() & low_mask(width);
    const u64 b = rng.next_u64() & low_mask(width);
    const u64 p = m.multiply_u(a, b);
    const u64 exact = a * b;
    max_err = std::max(max_err, p > exact ? p - exact : exact - p);
  }
  // Error bound: displaced carries/sums below bit k can accumulate across the
  // combine levels; 16 * 2^k is a conservative envelope, and exactness is
  // required at k == 0.
  const u64 bound = (k == 0) ? 0 : (u64{16} << k);
  EXPECT_LE(max_err, bound) << "width=" << width << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultErrorBound,
    ::testing::Combine(::testing::Values(16, 32),
                       ::testing::Values(AdderKind::Approx2, AdderKind::Approx5),
                       ::testing::Values(MultKind::V1, MultKind::V2),
                       ::testing::Values(ApproxPolicy::Conservative, ApproxPolicy::Moderate,
                                         ApproxPolicy::Aggressive),
                       ::testing::Values(0, 2, 4, 8, 12, 16)));

/// Policy ordering: a more aggressive policy approximates a superset of the
/// elementary modules, so its mean error can only grow.
TEST(MultiplierPolicy, MeanErrorOrderedByPolicy) {
  const int k = 8;
  double mean_err[3] = {0, 0, 0};
  const ApproxPolicy policies[3] = {ApproxPolicy::Conservative, ApproxPolicy::Moderate,
                                    ApproxPolicy::Aggressive};
  for (int p = 0; p < 3; ++p) {
    const RecursiveMultiplier m(
        MultiplierConfig{16, k, AdderKind::Approx5, MultKind::V1, policies[p]});
    Rng rng(99);
    for (int t = 0; t < 2000; ++t) {
      const u64 a = rng.next_u64() & 0xFFFF;
      const u64 b = rng.next_u64() & 0xFFFF;
      mean_err[p] += static_cast<double>(
          std::llabs(static_cast<i64>(m.multiply_u(a, b)) - static_cast<i64>(a * b)));
    }
    mean_err[p] /= 2000.0;
  }
  EXPECT_LE(mean_err[0], mean_err[1] + 1e-9);
  EXPECT_LE(mean_err[1], mean_err[2] + 1e-9);
}

TEST(Multiplier, FullyApproximateStillBounded) {
  // k = 32 (whole product approximated): result must stay within 32 bits.
  const RecursiveMultiplier m(
      MultiplierConfig{16, 32, AdderKind::Approx5, MultKind::V2, ApproxPolicy::Aggressive});
  Rng rng(123);
  for (int t = 0; t < 200; ++t) {
    const u64 a = rng.next_u64() & 0xFFFF;
    const u64 b = rng.next_u64() & 0xFFFF;
    EXPECT_LT(m.multiply_u(a, b), u64{1} << 32);
  }
}

// Threads racing on one cold configuration must all receive the one
// published model and the one published table of each kind: builds run
// outside the cache locks and are published insert-if-absent, so a losing
// racer's duplicate is dropped, never handed out or cached.
TEST(MultiplierCache, RacingColdBuildsShareOnePublishedInstance) {
  // A configuration no other test in this binary builds.
  const MultiplierConfig cfg{16, 13, AdderKind::Approx3, MultKind::V2, ApproxPolicy::Conservative};
  const i64 coeff = -7;
  const TableCacheStats before = table_cache_stats();

  constexpr std::size_t kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const RecursiveMultiplier>> models(kThreads);
  std::vector<std::shared_ptr<const TableVec>> coeff_tables(kThreads);
  std::vector<std::shared_ptr<const TableVec>> square_tables(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      models[i] = get_multiplier(cfg);
      coeff_tables[i] = get_signed_coeff_products(cfg, coeff);
      square_tables[i] = get_square_products(cfg);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(models[i], models[0]) << "thread " << i;
    EXPECT_EQ(coeff_tables[i], coeff_tables[0]) << "thread " << i;
    EXPECT_EQ(square_tables[i], square_tables[0]) << "thread " << i;
  }
  EXPECT_EQ(get_multiplier(cfg), models[0]);
  EXPECT_EQ(get_signed_coeff_products(cfg, coeff), coeff_tables[0]);
  EXPECT_EQ(get_square_products(cfg), square_tables[0]);
  // One publish each (the signed table's magnitude row included): the
  // configuration started cold, and the warm calls above published nothing.
  const TableCacheStats after = table_cache_stats();
  EXPECT_EQ(after.multiplier_models - before.multiplier_models, 1u);
  EXPECT_EQ(after.magnitude_tables - before.magnitude_tables, 1u);
  EXPECT_EQ(after.signed_tables - before.signed_tables, 1u);
  EXPECT_EQ(after.square_tables - before.square_tables, 1u);
}

}  // namespace
}  // namespace xbs::arith
