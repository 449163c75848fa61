// Tests for the fixed-point Pan-Tompkins stage datapaths.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include "pt_oracle.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::pantompkins {
namespace {

/// One chunk through \p stage: the outputs for \p x.
template <typename StageT>
std::vector<i32> run(StageT& stage, std::vector<i32> x) {
  std::vector<i32> y;
  stage.process_chunk(x, y);
  return y;
}

TEST(Inventory, MatchesPaperCounts) {
  EXPECT_EQ(stage_inventory(Stage::Lpf).n_adders, 10);
  EXPECT_EQ(stage_inventory(Stage::Lpf).n_mults, 11);
  EXPECT_EQ(stage_inventory(Stage::Lpf).n_registers, 10);
  EXPECT_EQ(stage_inventory(Stage::Hpf).n_adders, 31);
  EXPECT_EQ(stage_inventory(Stage::Hpf).n_mults, 32);
  EXPECT_EQ(stage_inventory(Stage::Der).n_mults, 4);
  EXPECT_EQ(stage_inventory(Stage::Sqr).n_mults, 1);
  EXPECT_EQ(stage_inventory(Stage::Sqr).n_adders, 0);
  EXPECT_EQ(stage_inventory(Stage::Mwi).n_mults, 0);
  EXPECT_EQ(stage_inventory(Stage::Mwi).n_adders, 29);
  // Paper sweep limits (§6.2): DER 4, SQR 8, MWI 16.
  EXPECT_EQ(stage_inventory(Stage::Der).max_lsbs, 4);
  EXPECT_EQ(stage_inventory(Stage::Sqr).max_lsbs, 8);
  EXPECT_EQ(stage_inventory(Stage::Mwi).max_lsbs, 16);
}

TEST(FirStage, MatchesDoubleReferenceWithinQuantization) {
  // Exact-datapath LPF vs the double-precision reference (gain 36 vs >>5):
  // outputs must track within integer truncation error of the shift.
  arith::ExactKernel kernel;
  FirStage lpf(kLpfTaps, kLpfShift, kernel);
  std::vector<double> x;
  std::vector<i32> adu;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    x.push_back(8000.0 * std::sin(2.0 * std::numbers::pi * 3.0 * i / 200.0) +
                rng.gaussian(0.0, 500.0));
    adu.push_back(static_cast<i32>(std::lround(x.back())));
  }
  const auto ref = oracle::pt_reference_chain(x);
  const std::vector<i32> fixed = run(lpf, adu);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double expect = ref.lpf[i] * 36.0 / 32.0;  // reference uses /36, hw >>5
    EXPECT_NEAR(fixed[i], expect, 2.0) << i;
  }
}

TEST(FirStage, OutputSaturatesTo16Bit) {
  arith::ExactKernel kernel;
  FirStage lpf(kLpfTaps, kLpfShift, kernel);
  // A full-scale step: 36*32767>>5 would exceed the register, so it clamps.
  EXPECT_EQ(run(lpf, std::vector<i32>(30, 32767)).back(), 32767);
}

TEST(FirStage, ZeroTapsSkipped) {
  arith::ExactKernel kernel;
  FirStage der(kDerTaps, kDerShift, kernel);
  (void)run(der, std::vector<i32>(100, 1000));
  // 4 non-zero taps -> 4 multiplies, 3 adds per sample.
  EXPECT_EQ(kernel.counts().mults, 400u);
  EXPECT_EQ(kernel.counts().adds, 300u);
}

TEST(FirStage, ResetRestoresInitialState) {
  arith::ExactKernel kernel;
  FirStage f(kDerTaps, kDerShift, kernel);
  const std::vector<i32> first = run(f, {5000, -3000});
  (void)run(f, {700, 800});
  f.reset();
  EXPECT_EQ(run(f, {5000, -3000}), first);
}

TEST(FirStage, EmptyTapsThrow) {
  arith::ExactKernel kernel;
  EXPECT_THROW(FirStage({}, 0, kernel), std::invalid_argument);
}

TEST(Squarer, SquaresAndShifts) {
  arith::ExactKernel kernel;
  SquarerStage sqr(kSqrShift, kernel);
  // Always positive, with a saturating clamp on the 16-bit input port.
  const std::vector<i32> want = {(100 * 100) >> kSqrShift, (100 * 100) >> kSqrShift, 0,
                                 static_cast<i32>((i64{32767} * 32767) >> kSqrShift)};
  EXPECT_EQ(run(sqr, {100, -100, 0, 100000}), want);
}

TEST(Mwi, MatchesRunningSumShifted) {
  arith::ExactKernel kernel;
  MwiStage mwi(4, 2, kernel);  // window 4, >>2 == /4 exactly
  // Window contents: {4}, {4,8}, {4,8,12}, {4..16}, {8..20}, {12..24}.
  EXPECT_EQ(run(mwi, {4, 8, 12, 16, 20, 24}), (std::vector<i32>{1, 3, 6, 10, 14, 18}));
}

TEST(Mwi, AdderOnlyOpCounts) {
  arith::ExactKernel kernel;
  MwiStage mwi(kMwiWindow, kMwiShift, kernel);
  (void)run(mwi, std::vector<i32>(10, 100));
  EXPECT_EQ(kernel.counts().mults, 0u);
  EXPECT_EQ(kernel.counts().adds, 290u);  // 29 adds per sample
}

TEST(Mwi, InvalidWindowThrows) {
  arith::ExactKernel kernel;
  EXPECT_THROW(MwiStage(1, 0, kernel), std::invalid_argument);
}

/// \p stage one sample per chunk over \p x, each behind an empty chunk: the
/// outputs.
template <typename StageT>
std::vector<i32> run_per_sample(StageT& stage, const std::vector<i32>& x) {
  std::vector<i32> out, y;
  for (const i32 v : x) {
    stage.process_chunk({}, y);
    EXPECT_TRUE(y.empty());
    stage.process_chunk(std::span<const i32>(&v, 1), y);
    out.insert(out.end(), y.begin(), y.end());
  }
  return out;
}

TEST(StageHistory, DegenerateWidthsStreamLikeOneChunk) {
  // A one-tap FIR stage carries no history and a window-2 MWI stage one
  // input: fed one sample at a time, with an empty chunk before each, both
  // must give what one chunk gives, op counts included, on the exact and
  // the approximate kernel.
  Rng rng(12);
  std::vector<i32> x(300);
  for (i32& v : x) v = static_cast<i32>(rng.uniform_int(-30000, 30000));
  const std::array<int, 1> one_tap = {-3};
  for (const int lsbs : {0, 6}) {
    const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(lsbs);
    const std::unique_ptr<arith::Kernel> whole = arith::make_kernel(cfg);
    const std::unique_ptr<arith::Kernel> split = arith::make_kernel(cfg);
    FirStage fir_whole(one_tap, 1, *whole);
    FirStage fir_split(one_tap, 1, *split);
    EXPECT_EQ(run_per_sample(fir_split, x), run(fir_whole, x)) << "lsbs=" << lsbs;
    MwiStage mwi_whole(2, 1, *whole);
    MwiStage mwi_split(2, 1, *split);
    EXPECT_EQ(run_per_sample(mwi_split, x), run(mwi_whole, x)) << "lsbs=" << lsbs;
    EXPECT_EQ(split->counts(), whole->counts()) << "lsbs=" << lsbs;
  }
}

TEST(ApproxUnitVsExact, IdenticalAtZeroLsbs) {
  // The bit-accurate datapath with k = 0 must match native arithmetic
  // exactly — the foundational correctness property of the whole pipeline.
  const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(0);
  oracle::ExactUnit exact;
  oracle::ApproxUnit approx(cfg);
  const arith::RippleCarryAdder adder(cfg.adder);
  Rng rng(9);
  for (int t = 0; t < 2000; ++t) {
    const i64 a = rng.uniform_int(-2000000, 2000000);
    const i64 b = rng.uniform_int(-2000000, 2000000);
    EXPECT_EQ(approx.add(a, b), exact.add(a, b));
    EXPECT_EQ(adder.sub_signed(a, b), a - b);
    const i64 ma = rng.uniform_int(-32768, 32767);
    const i64 mb = rng.uniform_int(-32768, 32767);
    EXPECT_EQ(approx.mul(ma, mb), exact.mul(ma, mb));
  }
}

}  // namespace
}  // namespace xbs::pantompkins
