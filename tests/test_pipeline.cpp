// Integration tests for the end-to-end fixed-point pipeline with per-stage
// approximate arithmetic.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "scalar_unit.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/metrics/peaks.hpp"
#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::pantompkins {
namespace {

double accuracy(const PipelineConfig& cfg, int n_records, std::size_t n_samples) {
  int fn = 0, fp = 0, truth = 0;
  const PanTompkinsPipeline pipe(cfg);
  for (int i = 0; i < n_records; ++i) {
    const auto rec = ecg::nsrdb_like_digitized(i, n_samples);
    const auto res = pipe.run(rec.adu);
    const auto m = metrics::match_peaks(rec.r_peaks, res.detection.peaks, 30);
    fn += m.false_negatives;
    fp += m.false_positives;
    truth += m.truth_count();
  }
  return truth > 0 ? 100.0 * std::max(0.0, 1.0 - double(fn + fp) / truth) : 0.0;
}

TEST(Pipeline, AccurateDetects100Percent) {
  EXPECT_DOUBLE_EQ(accuracy(PipelineConfig::accurate(), 4, 10000), 100.0);
}

TEST(Pipeline, ApproxUnitAtZeroLsbsBitIdenticalToExact) {
  // k=0 never reaches the approximate kernel (make_kernel takes the exact
  // path), so configure k>0 with *accurate* elementary modules instead:
  // the approximate kernel must then be bit-identical to exact.
  const auto rec = ecg::nsrdb_like_digitized(0, 6000);
  const PanTompkinsPipeline exact;
  PipelineConfig cfg;
  for (auto& s : cfg.stage) {
    s = arith::StageArithConfig::uniform(12, AdderKind::Accurate, MultKind::Accurate);
  }
  const PanTompkinsPipeline accurate_modules(cfg);
  const auto a = exact.run_filters(rec.adu);
  const auto b = accurate_modules.run_filters(rec.adu);
  EXPECT_EQ(a.lpf, b.lpf);
  EXPECT_EQ(a.hpf, b.hpf);
  EXPECT_EQ(a.der, b.der);
  EXPECT_EQ(a.sqr, b.sqr);
  EXPECT_EQ(a.mwi, b.mwi);
}

TEST(Pipeline, PaperConfigB9Keeps100Percent) {
  // Fig. 12 B9 = {LPF 10, HPF 12, DER 2, SQR 8, MWI 16}: the paper's
  // zero-quality-loss design; ours must also detect every beat.
  const auto cfg = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  EXPECT_DOUBLE_EQ(accuracy(cfg, 4, 10000), 100.0);
}

TEST(Pipeline, ExtremeApproximationCollapsesAccuracy) {
  // DER at 16 LSBs wipes the slope signal entirely (paper: past the
  // error-resilience threshold accuracy falls to zero).
  LsbVector lsbs{0, 0, 16, 0, 0};
  const auto cfg = PipelineConfig::from_lsbs(lsbs);
  EXPECT_LT(accuracy(cfg, 2, 10000), 50.0);
}

TEST(Pipeline, AccuracyMonotoneOverLpfSweepCoarse) {
  // Accuracy may only degrade (weakly) as LPF approximation deepens.
  double prev = 101.0;
  for (const int k : {0, 8, 14, 16}) {
    LsbVector lsbs{k, 0, 0, 0, 0};
    const double acc = accuracy(PipelineConfig::from_lsbs(lsbs), 2, 10000);
    EXPECT_LE(acc, prev + 1e-9) << k;
    prev = acc;
  }
}

TEST(Pipeline, OpCountsMatchStageInventory) {
  const auto rec = ecg::nsrdb_like_digitized(1, 2000);
  const PanTompkinsPipeline pipe;
  const auto res = pipe.run_filters(rec.adu);
  const u64 n = rec.adu.size();
  EXPECT_EQ(res.ops[0].mults, 11 * n);  // LPF taps
  EXPECT_EQ(res.ops[0].adds, 10 * n);
  EXPECT_EQ(res.ops[1].mults, 32 * n);  // HPF taps
  EXPECT_EQ(res.ops[1].adds, 31 * n);
  EXPECT_EQ(res.ops[2].mults, 4 * n);   // DER non-zero taps
  EXPECT_EQ(res.ops[3].mults, 1 * n);   // SQR
  EXPECT_EQ(res.ops[3].adds, 0u);
  EXPECT_EQ(res.ops[4].mults, 0u);      // MWI adder-only
  EXPECT_EQ(res.ops[4].adds, 29 * n);
}

TEST(Pipeline, StageSignalAccessor) {
  const auto rec = ecg::nsrdb_like_digitized(0, 2000);
  const PanTompkinsPipeline pipe;
  const auto res = pipe.run_filters(rec.adu);
  EXPECT_EQ(&res.stage_signal(Stage::Lpf), &res.lpf);
  EXPECT_EQ(&res.stage_signal(Stage::Mwi), &res.mwi);
  EXPECT_EQ(res.lpf.size(), rec.adu.size());
}

TEST(Pipeline, UniformFactoryAppliesAllStages) {
  const auto cfg = PipelineConfig::uniform(4);
  for (const auto& s : cfg.stage) {
    EXPECT_EQ(s.adder.approx_lsbs, 4);
    EXPECT_EQ(s.mult.approx_lsbs, 4);
    EXPECT_EQ(s.adder.kind, AdderKind::Approx5);
    EXPECT_EQ(s.mult.mult_kind, MultKind::V1);
  }
}

TEST(Pipeline, RunStageBuildsColdTablesInItsFirstBlock) {
  // run_stage feeds a record in kStageBlock-sample blocks through one
  // kernel, which builds a cold configuration's product tables in its first
  // block and walks them in every later one: one signed table per distinct
  // DER tap, once. No other test here touches this configuration, so its
  // tables start cold.
  const auto cfg = arith::StageArithConfig::uniform(7, AdderKind::Approx3, MultKind::V2,
                                                    ApproxPolicy::Aggressive);
  const auto rec = ecg::nsrdb_like_digitized(0, 3 * kStageBlock);
  const arith::TableCacheStats before = arith::table_cache_stats();
  const std::vector<i32> out = run_stage(Stage::Der, cfg, rec.adu);
  const arith::TableCacheStats after = arith::table_cache_stats();
  EXPECT_EQ(after.signed_tables - before.signed_tables, 4u);  // DER taps 2, 1, -1, -2
  EXPECT_EQ(out.size(), rec.adu.size());
}

TEST(Pipeline, KernelsBuildColdTablesOnFirstUse) {
  // A kernel resolves every table its op walks on its first call, at any
  // block size: a 1-sample DER chunk builds the signed tables of taps 2, 1,
  // -1 and -2, a 1-sample square_n the square table, and later calls build
  // nothing. No other test here touches these configurations, so their
  // tables start cold.
  const auto der_cfg = arith::StageArithConfig::uniform(9, AdderKind::Approx1, MultKind::V2,
                                                        ApproxPolicy::Conservative);
  const auto sqr_cfg = arith::StageArithConfig::uniform(11, AdderKind::Approx2, MultKind::V1,
                                                        ApproxPolicy::Aggressive);
  const std::unique_ptr<arith::Kernel> der_kernel = arith::make_kernel(der_cfg);
  const std::unique_ptr<arith::Kernel> sqr_kernel = arith::make_kernel(sqr_cfg);
  StageProcessor der(Stage::Der, *der_kernel);
  const std::vector<i32> x = {1234};
  std::vector<i32> y;
  std::vector<i64> sq = {-1234};

  const arith::TableCacheStats before = arith::table_cache_stats();
  der.process_chunk(x, y);
  const arith::TableCacheStats after_der = arith::table_cache_stats();
  EXPECT_EQ(after_der.signed_tables - before.signed_tables, 4u);
  EXPECT_EQ(after_der.square_tables - before.square_tables, 0u);

  sqr_kernel->square_n(sq, sq);
  const arith::TableCacheStats after_sqr = arith::table_cache_stats();
  EXPECT_EQ(after_sqr.square_tables - after_der.square_tables, 1u);
  EXPECT_EQ(after_sqr.signed_tables - after_der.signed_tables, 0u);

  der.process_chunk(x, y);
  sqr_kernel->square_n(sq, sq);
  EXPECT_EQ(arith::table_cache_stats(), after_sqr);

  // The first-use path computes what the scalar unit computes.
  oracle::ApproxUnit unit(der_cfg);
  oracle::UnitKernel scalar(unit);
  StageProcessor der_ref(Stage::Der, scalar);
  std::vector<i32> want;
  der_ref.process_chunk(x, want);
  der_ref.process_chunk(x, want);
  EXPECT_EQ(y, want);
}

TEST(Pipeline, MwiOutputNonNegativeEvenApproximate) {
  // The squarer output is non-negative; the accurate MWI must preserve that.
  const auto rec = ecg::nsrdb_like_digitized(2, 4000);
  const PanTompkinsPipeline pipe;
  const auto res = pipe.run_filters(rec.adu);
  for (const i32 v : res.mwi) EXPECT_GE(v, 0);
}

}  // namespace
}  // namespace xbs::pantompkins
