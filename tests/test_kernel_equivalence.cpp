// Property tests: the batched kernels' counted ops (fir_n, square_n,
// window_sum_n; exact and approximate backends) are bit-identical to the
// scalar ExactUnit/ApproxUnit oracle (scalar_unit.hpp) across random
// operands and every (AdderKind, MultKind, approx_lsbs) combination, cold and
// warm, the exact kernel's fast fir_n/window_sum_n paths and the approximate
// kernel's AMA5 fold equal the hardware chain and tree over full-range
// operands, and the stage chunk transforms are
// bit-identical to streaming the same samples through the per-sample scalar
// oracle (pt_oracle.hpp) — including operation counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pt_oracle.hpp"
#include "scalar_unit.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::arith {
namespace {

using oracle::ApproxUnit;
using oracle::ArithmeticUnit;
using oracle::ExactUnit;
using oracle::UnitKernel;

std::vector<i64> random_adder_operands(Rng& rng, std::size_t n) {
  std::vector<i64> v(n);
  for (i64& x : v) x = rng.uniform_int(-2000000000, 2000000000);
  return v;
}

std::vector<i64> random_mult_operands(Rng& rng, std::size_t n) {
  std::vector<i64> v(n);
  for (i64& x : v) x = rng.uniform_int(-32768, 32767);
  return v;
}

/// Index of the first differing element, or -1 (readable failures on long
/// blocks).
std::ptrdiff_t first_mismatch(std::span<const i64> a, std::span<const i64> b) {
  if (a.size() != b.size()) return 0;
  const auto it = std::mismatch(a.begin(), a.end(), b.begin());
  return it.first == a.end() ? -1 : it.first - a.begin();
}

/// FIR taps of the kernel tests: positive, negative, zero and most-negative
/// 16-bit coefficients, with -6 on two taps (two taps sharing one product
/// row).
constexpr std::array<int, 5> kTaps = {31, -6, 0, -32768, -6};
constexpr std::size_t kWindow = 30;  ///< MWI window of the kernel tests
constexpr std::size_t kBlockLen = 700;

/// The three counted ops on \p kernel against the scalar reference chain,
/// square and tree on \p unit (UnitKernel), over one block of \p n outputs:
/// outputs, then the op counts accumulated so far.
void expect_ops_match_unit(Kernel& kernel, ArithmeticUnit& unit, Rng& rng, std::size_t n,
                           const std::string& what) {
  UnitKernel scalar(unit);
  std::vector<i64> got(n), want(n);

  const std::vector<i64> x = random_mult_operands(rng, n + kTaps.size() - 1);
  kernel.fir_n(kTaps, x, got);
  scalar.fir_n(kTaps, x, want);
  EXPECT_EQ(first_mismatch(got, want), -1) << what << " fir_n n=" << n;

  const std::vector<i64> m = random_mult_operands(rng, n);
  kernel.square_n(m, got);
  scalar.square_n(m, want);
  EXPECT_EQ(first_mismatch(got, want), -1) << what << " square_n n=" << n;

  const std::vector<i64> a = random_adder_operands(rng, n + kWindow - 1);
  kernel.window_sum_n(kWindow, a, got);
  scalar.window_sum_n(kWindow, a, want);
  EXPECT_EQ(first_mismatch(got, want), -1) << what << " window_sum_n n=" << n;

  EXPECT_EQ(kernel.counts(), unit.counts()) << what << " n=" << n;
}

class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<AdderKind, MultKind, int>> {};

TEST_P(KernelEquivalence, BatchedMatchesScalarUnit) {
  const auto [add_kind, mult_kind, lsbs] = GetParam();
  const StageArithConfig cfg = StageArithConfig::uniform(lsbs, add_kind, mult_kind);
  Rng rng(77 + static_cast<u64>(lsbs) * 31 + static_cast<u64>(add_kind) * 7 +
          static_cast<u64>(mult_kind));
  // Two fresh kernels in turn. The first derives its FIR plan and resolves
  // its tables in its first (1-sample) call, building any the process has
  // not; the second finds every table warm. Both must equal the scalar unit
  // at every block length.
  for (const char* pass : {"cold", "warm"}) {
    const std::unique_ptr<Kernel> kernel = make_kernel(cfg);
    ApproxUnit unit(cfg);
    for (const std::size_t n : {std::size_t{1}, std::size_t{33}, kBlockLen}) {
      expect_ops_match_unit(*kernel, unit, rng, n, pass);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLsbs, KernelEquivalence,
    ::testing::Combine(::testing::ValuesIn(kAllAdderKinds),
                       ::testing::ValuesIn(kAllMultKinds),
                       ::testing::Values(0, 2, 5, 8, 16)));

TEST(KernelEquivalence, ExactKernelMatchesExactUnit) {
  ExactUnit unit;
  ExactKernel kernel;
  Rng rng(5);
  expect_ops_match_unit(kernel, unit, rng, kBlockLen, "exact");
}

TEST(KernelEquivalence, OpCountsMatchScalarTotals) {
  const StageArithConfig cfg = StageArithConfig::uniform(8);
  const std::unique_ptr<Kernel> kernel = make_kernel(cfg);
  Rng rng(11);
  const std::array<int, 3> taps = {3, 0, 5};  // two non-zero taps
  const std::vector<i64> x = random_mult_operands(rng, kBlockLen + kWindow - 1);
  std::vector<i64> out(kBlockLen);
  kernel->fir_n(taps, std::span<const i64>(x).first(kBlockLen + taps.size() - 1), out);
  EXPECT_EQ(kernel->counts().mults, 2 * kBlockLen);
  EXPECT_EQ(kernel->counts().adds, kBlockLen);
  kernel->square_n(std::span<const i64>(x).first(kBlockLen), out);
  EXPECT_EQ(kernel->counts().mults, 3 * kBlockLen);
  kernel->window_sum_n(kWindow, x, out);
  EXPECT_EQ(kernel->counts().adds, kBlockLen + (kWindow - 1) * kBlockLen);
}

// The exact kernel's fast paths (fir_n in its difference form on prefix
// sums, window_sum_n as a running sum) against the hardware chain and tree
// evaluated by the scalar ExactUnit through UnitKernel, outputs and OpCounts.
// Operands span the whole i32 range, mixed with runs of the extremes, so the
// 16-bit operand truncation and every 32-bit wrap are exercised.

constexpr i64 kI32Min = std::numeric_limits<i32>::min();
constexpr i64 kI32Max = std::numeric_limits<i32>::max();

/// Runs of INT32_MIN, INT32_MAX, 16-bit extremes under random high bits, or
/// uniform i32 values.
std::vector<i64> full_range_operands(Rng& rng, std::size_t n) {
  std::vector<i64> v;
  v.reserve(n);
  while (v.size() < n) {
    const i64 kind = rng.uniform_int(0, 4);
    const i64 run = rng.uniform_int(1, 48);
    for (i64 k = 0; k < run && v.size() < n; ++k) {
      const i64 high = rng.uniform_int(kI32Min, kI32Max) & ~i64{0xFFFF};
      const i64 uniform = rng.uniform_int(kI32Min, kI32Max);
      const std::array<i64, 5> pick = {kI32Min, kI32Max, high | 0x7FFF, high | 0x8000, uniform};
      v.push_back(pick[static_cast<std::size_t>(kind)]);
    }
  }
  return v;
}

/// Every tap-set shape the difference form must handle: the three stage
/// sets, random sets, runs of equal taps, triangles, all-zero and single-tap
/// sets, and coefficients outside 16 bits (truncated by the multiplier).
std::vector<std::vector<int>> fir_tap_sets(Rng& rng) {
  std::vector<std::vector<int>> sets;
  sets.emplace_back(pantompkins::kLpfTaps.begin(), pantompkins::kLpfTaps.end());
  sets.emplace_back(pantompkins::kHpfTaps.begin(), pantompkins::kHpfTaps.end());
  sets.emplace_back(pantompkins::kDerTaps.begin(), pantompkins::kDerTaps.end());
  sets.push_back(std::vector<int>(33, 0));
  sets.insert(sets.end(), {{0}, {0, 0, 0, 0, 0}, {1}, {-1}, {64}, {-64}, {0, 0, 7, 0}});
  sets.insert(sets.end(), {{0, 0, 0, -5}, {32767}, {-32768}, {65536, 1}, {70000, -70000, 98304}});
  for (int t = 0; t < 200; ++t) {  // random, 1-40 taps in [-64, 64]
    std::vector<int> s(static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (int& c : s) c = static_cast<int>(rng.uniform_int(-64, 64));
    sets.push_back(std::move(s));
  }
  for (int t = 0; t < 60; ++t) {  // runs of equal taps
    std::vector<int> s;
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 40));
    while (s.size() < size) {
      const int c = static_cast<int>(rng.uniform_int(-64, 64));
      for (i64 k = rng.uniform_int(1, 12); k > 0 && s.size() < size; --k) s.push_back(c);
    }
    sets.push_back(std::move(s));
  }
  for (int m = 1; m <= 20; ++m) {  // triangles 1..m..1, both signs, scaled
    std::vector<int> s;
    for (int j = 1; j <= m; ++j) s.push_back(j);
    for (int j = m - 1; j >= 1; --j) s.push_back(j);
    sets.push_back(s);
    for (int& c : s) c *= -3;
    sets.push_back(std::move(s));
  }
  for (int t = 0; t < 30; ++t) {  // wide: products and sums wrap at 32 bits
    std::vector<int> s(static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (int& c : s) c = static_cast<int>(rng.uniform_int(kI32Min, kI32Max));
    sets.push_back(std::move(s));
  }
  return sets;
}

TEST(ExactFastPaths, FirMatchesScalarChainFullRange) {
  Rng rng(2024);
  for (const std::vector<int>& taps : fir_tap_sets(rng)) {
    ExactKernel kernel;  // one kernel per tap set, as one per stage
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{4000}}) {
      const std::vector<i64> padded = full_range_operands(rng, n + taps.size() - 1);
      ExactUnit unit;
      UnitKernel chain(unit);
      std::vector<i64> got(n), want(n);
      kernel.reset_counts();
      kernel.fir_n(taps, padded, got);
      chain.fir_n(taps, padded, want);
      ASSERT_EQ(first_mismatch(got, want), -1)
          << "taps=" << taps.size() << " first=" << taps.front() << " n=" << n;
      EXPECT_EQ(kernel.counts(), unit.counts()) << "taps=" << taps.size() << " n=" << n;
    }
  }
}

TEST(ExactFastPaths, WindowSumMatchesScalarTreeFullRange) {
  Rng rng(2025);
  for (std::size_t w = 1; w <= 40; ++w) {
    ExactKernel kernel;
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8000}}) {
      const std::vector<i64> padded = full_range_operands(rng, n + w - 1);
      ExactUnit unit;
      UnitKernel tree(unit);
      std::vector<i64> got(n), want(n);
      kernel.reset_counts();
      kernel.window_sum_n(w, padded, got);
      tree.window_sum_n(w, padded, want);
      ASSERT_EQ(first_mismatch(got, want), -1) << "w=" << w << " n=" << n;
      EXPECT_EQ(kernel.counts(), unit.counts()) << "w=" << w << " n=" << n;
    }
  }
}

TEST(ExactFastPaths, LongBlocksCrossTheUnwrappedStretches) {
  // The exact kernel's running sums stay unwrapped for 2^16 operands at a
  // time and wrap between stretches; a 150,000-sample block crosses two
  // stretch boundaries. Long runs of one 16-bit (32-bit) extreme drive the
  // prefix and window sums monotonically through many wraps.
  const std::size_t n = 150000;
  const i64 low16_min = kI32Min | 0x8000;  // i32 minimum whose low 16 bits are -32768
  const i64 low16_max = kI32Max & ~i64{0x8000};  // ... whose low 16 bits are +32767
  std::vector<i64> padded(n / 3, low16_min);
  padded.resize(2 * n / 3, low16_max);
  Rng rng(2027);
  const std::vector<i64> tail = full_range_operands(rng, n + 40 - padded.size());
  padded.insert(padded.end(), tail.begin(), tail.end());

  const std::vector<std::vector<int>> tap_sets = {
      {pantompkins::kLpfTaps.begin(), pantompkins::kLpfTaps.end()},
      {pantompkins::kHpfTaps.begin(), pantompkins::kHpfTaps.end()}};
  for (const std::vector<int>& taps : tap_sets) {
    ExactKernel kernel;
    ExactUnit unit;
    UnitKernel chain(unit);
    const std::span<const i64> window = std::span<const i64>(padded).first(n + taps.size() - 1);
    std::vector<i64> got(n), want(n);
    kernel.fir_n(taps, window, got);
    chain.fir_n(taps, window, want);
    EXPECT_EQ(first_mismatch(got, want), -1) << "taps=" << taps.size();
  }
  for (const std::size_t w : {std::size_t{2}, std::size_t{30}, std::size_t{40}}) {
    ExactKernel kernel;
    ExactUnit unit;
    UnitKernel tree(unit);
    const std::span<const i64> window = std::span<const i64>(padded).first(n + w - 1);
    std::vector<i64> got(n), want(n);
    kernel.window_sum_n(w, window, got);
    tree.window_sum_n(w, window, want);
    EXPECT_EQ(first_mismatch(got, want), -1) << "w=" << w;
  }
}

TEST(ExactFastPaths, ApproxWindowSumIsTheScalarTree) {
  // The approximate adds are not associative, so the approximate kernel
  // must reproduce the scalar tree at every window: AMA5 (this config)
  // through its closed-form fold, the other kinds through batched adds.
  const StageArithConfig cfg = StageArithConfig::uniform(8);
  Rng rng(2026);
  for (std::size_t w = 2; w <= 40; ++w) {
    ApproxKernel kernel(cfg);
    ApproxUnit unit(cfg);
    UnitKernel tree(unit);
    const std::size_t n = 300;
    const std::vector<i64> padded = full_range_operands(rng, n + w - 1);
    std::vector<i64> got(n), want(n);
    kernel.window_sum_n(w, padded, got);
    tree.window_sum_n(w, padded, want);
    ASSERT_EQ(first_mismatch(got, want), -1) << "w=" << w;
    EXPECT_EQ(kernel.counts(), unit.counts()) << "w=" << w;
  }
}

// The approximate kernel's AMA5 fold (see ApproxKernel) against the scalar
// chain and tree over full-range operands, so the high-part sums wrap: every
// approximate-LSB count from the lowest to the whole 32-bit word, outputs and
// OpCounts.

constexpr std::array<int, 7> kFoldLsbs = {1, 2, 8, 16, 30, 31, 32};
constexpr std::array<std::size_t, 3> kFoldBlocks = {1, 7, 1024};

/// An AMA5 adder with \p lsbs approximate LSBs and the accurate multiplier:
/// the fold is the adder's, and accurate products span [-2^30, 2^30] at
/// every k (at k >= 30 an approximate multiplier leaves a few small values).
/// The product tables are then shared by every k.
StageArithConfig fold_config(int lsbs) {
  StageArithConfig cfg;
  cfg.adder = AdderConfig{32, lsbs, AdderKind::Approx5, 0};
  return cfg;
}

/// The three stage tap sets, then sets made of runs of equal coefficients
/// from a small palette (so few product tables), one of them ending in a
/// run on the last tap. The palette is [-4, 4] plus the 16-bit extremes,
/// whose products reach bits 30 and 31.
std::vector<std::vector<int>> fold_tap_sets(Rng& rng) {
  constexpr std::array<int, 11> kPalette = {-32768, -4, -3, -2, -1, 0, 1, 2, 3, 4, 32767};
  std::vector<std::vector<int>> sets;
  sets.emplace_back(pantompkins::kLpfTaps.begin(), pantompkins::kLpfTaps.end());
  sets.emplace_back(pantompkins::kHpfTaps.begin(), pantompkins::kHpfTaps.end());
  sets.emplace_back(pantompkins::kDerTaps.begin(), pantompkins::kDerTaps.end());
  sets.push_back({3, -2, -2, -2, -2, -2});
  for (int t = 0; t < 40; ++t) {
    std::vector<int> s;
    const auto size = static_cast<std::size_t>(rng.uniform_int(2, 40));
    while (s.size() < size) {
      const int c = kPalette[static_cast<std::size_t>(rng.uniform_int(0, kPalette.size() - 1))];
      for (i64 k = rng.uniform_int(1, 16); k > 0 && s.size() < size; --k) s.push_back(c);
    }
    sets.push_back(std::move(s));
  }
  return sets;
}

TEST(Ama5Fold, FirMatchesScalarChainFullRange) {
  Rng rng(2028);
  const std::vector<std::vector<int>> tap_sets = fold_tap_sets(rng);
  for (const int lsbs : kFoldLsbs) {
    const StageArithConfig cfg = fold_config(lsbs);
    for (const std::vector<int>& taps : tap_sets) {
      ApproxKernel kernel(cfg);  // one kernel per tap set, as one per stage
      for (const std::size_t n : kFoldBlocks) {
        const std::vector<i64> padded = full_range_operands(rng, n + taps.size() - 1);
        ApproxUnit unit(cfg);
        UnitKernel chain(unit);
        std::vector<i64> got(n), want(n);
        kernel.reset_counts();
        kernel.fir_n(taps, padded, got);
        chain.fir_n(taps, padded, want);
        ASSERT_EQ(first_mismatch(got, want), -1)
            << "k=" << lsbs << " taps=" << taps.size() << " first=" << taps.front() << " n=" << n;
        EXPECT_EQ(kernel.counts(), unit.counts()) << "k=" << lsbs << " n=" << n;
      }
    }
  }
}

TEST(Ama5Fold, WindowSumMatchesScalarTreeFullRange) {
  Rng rng(2029);
  for (const int lsbs : kFoldLsbs) {
    const StageArithConfig cfg = fold_config(lsbs);
    const auto check = [&](ApproxKernel& kernel, std::size_t w, std::size_t n) {
      const std::vector<i64> padded = full_range_operands(rng, n + w - 1);
      ApproxUnit unit(cfg);
      UnitKernel tree(unit);
      std::vector<i64> got(n), want(n);
      kernel.reset_counts();
      kernel.window_sum_n(w, padded, got);
      tree.window_sum_n(w, padded, want);
      ASSERT_EQ(first_mismatch(got, want), -1) << "k=" << lsbs << " w=" << w << " n=" << n;
      EXPECT_EQ(kernel.counts(), unit.counts()) << "k=" << lsbs << " w=" << w << " n=" << n;
    };
    for (std::size_t w = 1; w <= 40; ++w) {
      ApproxKernel kernel(cfg);
      for (const std::size_t n : kFoldBlocks) check(kernel, w, n);
    }
    ApproxKernel kernel(cfg);
    check(kernel, 30, 150000);  // one long block: the prefix sums grow large
  }
}

}  // namespace
}  // namespace xbs::arith

namespace xbs::pantompkins {
namespace {

std::vector<i32> sample_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<i32> x(n);
  for (i32& v : x) v = static_cast<i32>(rng.uniform_int(-20000, 20000));
  return x;
}

/// Continue \p stage one sample per chunk over \p tail: its outputs.
template <typename StageT>
std::vector<i32> continue_per_sample(StageT& stage, std::span<const i32> tail) {
  std::vector<i32> out, y;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    stage.process_chunk(tail.subspan(i, 1), y);
    out.push_back(y.front());
  }
  return out;
}

class StageBlockEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(StageBlockEquivalence, FirBlockMatchesStreaming) {
  const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(GetParam());
  const std::vector<i32> x = sample_signal(900, 3);
  const std::vector<i32> tail = {1000, -2000, 3000};

  oracle::ApproxUnit scalar_unit(cfg);
  oracle::ScalarFirStage scalar(kLpfTaps, kLpfShift, scalar_unit);
  std::vector<i32> want, want_tail;
  for (const i32 v : x) want.push_back(scalar.process(v));

  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  FirStage block(kLpfTaps, kLpfShift, *kernel);
  std::vector<i32> got;
  block.process_chunk(x, got);

  EXPECT_EQ(got, want);
  EXPECT_EQ(kernel->counts(), scalar_unit.counts());

  // The block transform leaves the stage in streaming state: continuing
  // sample by sample must agree with the pure streaming run.
  for (const i32 v : tail) want_tail.push_back(scalar.process(v));
  EXPECT_EQ(continue_per_sample(block, tail), want_tail);
}

TEST_P(StageBlockEquivalence, MwiBlockMatchesStreaming) {
  const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(GetParam());
  std::vector<i32> x = sample_signal(500, 4);
  for (i32& v : x) v = v < 0 ? -v : v;  // MWI input (squared signal) is non-negative
  const std::vector<i32> tail = {500, 700, 900};

  oracle::ApproxUnit scalar_unit(cfg);
  oracle::ScalarMwiStage scalar(kMwiWindow, kMwiShift, scalar_unit);
  std::vector<i32> want, want_tail;
  for (const i32 v : x) want.push_back(scalar.process(v));

  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  MwiStage block(kMwiWindow, kMwiShift, *kernel);
  std::vector<i32> got;
  block.process_chunk(x, got);

  EXPECT_EQ(got, want);
  EXPECT_EQ(kernel->counts(), scalar_unit.counts());
  for (const i32 v : tail) want_tail.push_back(scalar.process(v));
  EXPECT_EQ(continue_per_sample(block, tail), want_tail);
}

TEST_P(StageBlockEquivalence, SquarerBlockMatchesStreaming) {
  const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(GetParam());
  const std::vector<i32> x = sample_signal(600, 5);

  oracle::ApproxUnit scalar_unit(cfg);
  oracle::ScalarSquarerStage scalar(kSqrShift, scalar_unit);
  std::vector<i32> want;
  for (const i32 v : x) want.push_back(scalar.process(v));

  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  SquarerStage block(kSqrShift, *kernel);
  std::vector<i32> got;
  block.process_chunk(x, got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(kernel->counts(), scalar_unit.counts());
}

INSTANTIATE_TEST_SUITE_P(Lsbs, StageBlockEquivalence, ::testing::Values(0, 4, 10));

/// Full-range i32 stage input: the operand mix of the kernel tests above.
std::vector<i32> full_range_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<i32> x;
  for (const i64 v : arith::full_range_operands(rng, n)) x.push_back(static_cast<i32>(v));
  return x;
}

/// \p stage over \p x in chunks of \p chunk samples: the outputs.
template <typename StageT>
std::vector<i32> run_chunked(StageT& stage, std::span<const i32> x, std::size_t chunk) {
  std::vector<i32> out, y;
  for (std::size_t at = 0; at < x.size(); at += chunk) {
    stage.process_chunk(x.subspan(at, std::min(chunk, x.size() - at)), y);
    out.insert(out.end(), y.begin(), y.end());
  }
  return out;
}

class ExactStageChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExactStageChunking, FirStagesMatchScalarOracle) {
  // The exact kernel's difference form carries no state of its own: at any
  // chunking the FIR stages equal the per-sample scalar chain, counts too.
  const std::vector<i32> x = full_range_signal(5000, 31);
  const std::size_t chunk = GetParam() == 0 ? x.size() : GetParam();
  const std::vector<std::pair<std::span<const int>, int>> stages = {
      {kLpfTaps, kLpfShift}, {kHpfTaps, kHpfShift}, {kDerTaps, kDerShift}};
  for (const auto& [taps, shift] : stages) {
    oracle::ExactUnit unit;
    oracle::ScalarFirStage scalar(taps, shift, unit);
    std::vector<i32> want;
    for (const i32 v : x) want.push_back(scalar.process(v));

    arith::ExactKernel kernel;
    FirStage block(taps, shift, kernel);
    EXPECT_EQ(run_chunked(block, x, chunk), want) << "taps=" << taps.size();
    EXPECT_EQ(kernel.counts(), unit.counts()) << "taps=" << taps.size();
  }
}

TEST_P(ExactStageChunking, MwiStageMatchesScalarOracle) {
  const std::vector<i32> x = full_range_signal(5000, 32);
  const std::size_t chunk = GetParam() == 0 ? x.size() : GetParam();
  for (const int window : {2, kMwiWindow, 40}) {
    oracle::ExactUnit unit;
    oracle::ScalarMwiStage scalar(window, kMwiShift, unit);
    std::vector<i32> want;
    for (const i32 v : x) want.push_back(scalar.process(v));

    arith::ExactKernel kernel;
    MwiStage block(window, kMwiShift, kernel);
    EXPECT_EQ(run_chunked(block, x, chunk), want) << "window=" << window;
    EXPECT_EQ(kernel.counts(), unit.counts()) << "window=" << window;
  }
}

// Chunk sizes; 0 is the whole input as one chunk.
INSTANTIATE_TEST_SUITE_P(Chunks, ExactStageChunking,
                         ::testing::Values(std::size_t{1}, std::size_t{7}, std::size_t{64},
                                           std::size_t{1024}, std::size_t{0}));

class PipelineBlockEquivalence : public ::testing::TestWithParam<core::NamedConfig> {};

TEST_P(PipelineBlockEquivalence, BlockPipelineMatchesStreamedStages) {
  // End-to-end: the block pipeline must equal streaming every stage sample
  // by sample through the scalar oracle — the legacy datapath, reconstructed.
  const auto rec = ecg::nsrdb_like_digitized(0, 4000);
  const auto cfg = PipelineConfig::from_lsbs(GetParam().lsbs);

  const PanTompkinsPipeline pipe(cfg);
  const PipelineResult block = pipe.run_filters(rec.adu);

  std::array<std::unique_ptr<oracle::ArithmeticUnit>, kNumStages> units;
  for (int s = 0; s < kNumStages; ++s) {
    const auto& sc = cfg.stage[static_cast<std::size_t>(s)];
    if (sc.is_exact()) {
      units[static_cast<std::size_t>(s)] = std::make_unique<oracle::ExactUnit>();
    } else {
      units[static_cast<std::size_t>(s)] = std::make_unique<oracle::ApproxUnit>(sc);
    }
  }
  oracle::ScalarFirStage lpf(kLpfTaps, kLpfShift, *units[0]);
  oracle::ScalarFirStage hpf(kHpfTaps, kHpfShift, *units[1]);
  oracle::ScalarFirStage der(kDerTaps, kDerShift, *units[2]);
  oracle::ScalarSquarerStage sqr(kSqrShift, *units[3]);
  oracle::ScalarMwiStage mwi(kMwiWindow, kMwiShift, *units[4]);

  for (std::size_t i = 0; i < rec.adu.size(); ++i) {
    const i32 a = lpf.process(rec.adu[i]);
    const i32 b = hpf.process(a);
    const i32 c = der.process(b);
    const i32 d = sqr.process(c);
    const i32 e = mwi.process(d);
    ASSERT_EQ(block.lpf[i], a) << i;
    ASSERT_EQ(block.hpf[i], b) << i;
    ASSERT_EQ(block.der[i], c) << i;
    ASSERT_EQ(block.sqr[i], d) << i;
    ASSERT_EQ(block.mwi[i], e) << i;
  }
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_EQ(block.ops[static_cast<std::size_t>(s)],
              units[static_cast<std::size_t>(s)]->counts())
        << to_string(kAllStages[static_cast<std::size_t>(s)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Fig12, PipelineBlockEquivalence,
                         ::testing::ValuesIn(core::fig12_b_configs()),
                         [](const ::testing::TestParamInfo<core::NamedConfig>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace xbs::pantompkins
