// Property tests: the batched kernels (exact and approximate backends) are
// bit-identical to the legacy scalar ExactUnit/ApproxUnit datapath across
// random operands and every (AdderKind, MultKind, approx_lsbs) combination,
// and the stage chunk transforms are bit-identical to streaming the same
// samples through the per-sample scalar oracle (pt_oracle.hpp) — including
// operation counts.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "pt_oracle.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/arith/unit.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::arith {
namespace {

// Long enough to exercise the coefficient-product-table fast path of the
// approximate mac_n/mul_cn (which engages above an internal block-size
// threshold) as well as the generic loops.
constexpr std::size_t kBlockLen = 700;
constexpr std::size_t kShortLen = 33;  // below the table threshold

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

class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<AdderKind, MultKind, int>> {};

TEST_P(KernelEquivalence, BatchedMatchesScalarUnit) {
  const auto [add_kind, mult_kind, lsbs] = GetParam();
  const StageArithConfig cfg = StageArithConfig::uniform(lsbs, add_kind, mult_kind);
  ApproxUnit unit(cfg);
  const std::unique_ptr<Kernel> kernel = make_kernel(cfg);
  Rng rng(77 + static_cast<u64>(lsbs) * 31 + static_cast<u64>(add_kind) * 7 +
          static_cast<u64>(mult_kind));

  for (const std::size_t n : {kShortLen, kBlockLen}) {
    const std::vector<i64> a = random_adder_operands(rng, n);
    const std::vector<i64> b = random_adder_operands(rng, n);
    const std::vector<i64> ma = random_mult_operands(rng, n);
    const std::vector<i64> mb = random_mult_operands(rng, n);
    std::vector<i64> out(n);

    kernel->add_n(a, b, out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], unit.add(a[i], b[i])) << i;

    kernel->sub_n(a, b, out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], unit.sub(a[i], b[i])) << i;

    kernel->mul_n(ma, mb, out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], unit.mul(ma[i], mb[i])) << i;

    // Constant-coefficient multiply and fused MAC against the scalar chain,
    // for positive, negative and zero coefficients.
    for (const i64 c : {i64{31}, i64{-6}, i64{0}, i64{-32768}}) {
      kernel->mul_cn(c, ma, out);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], unit.mul(c, ma[i])) << i;

      std::vector<i64> acc = a;
      kernel->mac_n(c, ma, acc);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(acc[i], unit.add(a[i], unit.mul(c, ma[i]))) << i;
      }
    }
  }

  // The long blocks above built the coefficient product tables; a short
  // block now takes the warm-table fast path, which must stay bit-identical
  // to the cold generic loop it replaces.
  {
    const std::vector<i64> ma = random_mult_operands(rng, kShortLen);
    const std::vector<i64> a = random_adder_operands(rng, kShortLen);
    std::vector<i64> out(kShortLen);
    for (const i64 c : {i64{31}, i64{-6}}) {
      kernel->mul_cn(c, ma, out);
      for (std::size_t i = 0; i < kShortLen; ++i) EXPECT_EQ(out[i], unit.mul(c, ma[i])) << i;
      std::vector<i64> acc = a;
      kernel->mac_n(c, ma, acc);
      for (std::size_t i = 0; i < kShortLen; ++i) {
        EXPECT_EQ(acc[i], unit.add(a[i], unit.mul(c, ma[i]))) << i;
      }
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
  const std::vector<i64> a = random_adder_operands(rng, kBlockLen);
  const std::vector<i64> b = random_adder_operands(rng, kBlockLen);
  const std::vector<i64> ma = random_mult_operands(rng, kBlockLen);
  const std::vector<i64> mb = random_mult_operands(rng, kBlockLen);
  std::vector<i64> out(kBlockLen);

  kernel.add_n(a, b, out);
  for (std::size_t i = 0; i < kBlockLen; ++i) EXPECT_EQ(out[i], unit.add(a[i], b[i]));
  kernel.sub_n(a, b, out);
  for (std::size_t i = 0; i < kBlockLen; ++i) EXPECT_EQ(out[i], unit.sub(a[i], b[i]));
  kernel.mul_n(ma, mb, out);
  for (std::size_t i = 0; i < kBlockLen; ++i) EXPECT_EQ(out[i], unit.mul(ma[i], mb[i]));
  std::vector<i64> acc = a;
  kernel.mac_n(-7, ma, acc);
  for (std::size_t i = 0; i < kBlockLen; ++i) {
    EXPECT_EQ(acc[i], unit.add(a[i], unit.mul(-7, ma[i])));
  }
}

TEST(KernelEquivalence, OpCountsMatchScalarTotals) {
  const StageArithConfig cfg = StageArithConfig::uniform(8);
  const std::unique_ptr<Kernel> kernel = make_kernel(cfg);
  Rng rng(11);
  const std::vector<i64> x = random_mult_operands(rng, kBlockLen);
  std::vector<i64> acc(kBlockLen, 0);
  kernel->mul_cn(3, x, acc);
  kernel->mac_n(5, x, acc);
  EXPECT_EQ(kernel->counts().mults, 2 * kBlockLen);
  EXPECT_EQ(kernel->counts().adds, kBlockLen);
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

  arith::ApproxUnit scalar_unit(cfg);
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

  arith::ApproxUnit scalar_unit(cfg);
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

  arith::ApproxUnit scalar_unit(cfg);
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

class PipelineBlockEquivalence : public ::testing::TestWithParam<core::NamedConfig> {};

TEST_P(PipelineBlockEquivalence, BlockPipelineMatchesStreamedStages) {
  // End-to-end: the block pipeline must equal streaming every stage sample
  // by sample through the scalar oracle — the legacy datapath, reconstructed.
  const auto rec = ecg::nsrdb_like_digitized(0, 4000);
  const auto cfg = PipelineConfig::from_lsbs(GetParam().lsbs);

  const PanTompkinsPipeline pipe(cfg);
  const PipelineResult block = pipe.run_filters(rec.adu);

  std::array<std::unique_ptr<arith::ArithmeticUnit>, kNumStages> units;
  for (int s = 0; s < kNumStages; ++s) {
    const auto& sc = cfg.stage[static_cast<std::size_t>(s)];
    if (sc.is_exact()) {
      units[static_cast<std::size_t>(s)] = std::make_unique<arith::ExactUnit>();
    } else {
      units[static_cast<std::size_t>(s)] = std::make_unique<arith::ApproxUnit>(sc);
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
