// Tests for the per-stage memoized pipeline runner used by the design-space
// explorers: cached evaluations must be bit-identical to fresh pipeline runs,
// unchanged pipeline prefixes must be served from cache, and distinct records
// may run on several threads at once.
#include <gtest/gtest.h>

#include <thread>

#include "xbs/ecg/dataset.hpp"
#include "xbs/explore/evaluator.hpp"
#include "xbs/explore/stage_cache.hpp"

namespace xbs::explore {
namespace {

using pantompkins::PipelineConfig;
using pantompkins::Stage;

std::vector<ecg::DigitizedRecord> workload() {
  return {ecg::nsrdb_like_digitized(0, 4000), ecg::nsrdb_like_digitized(1, 4000)};
}

TEST(StageCache, MatchesFreshPipelineAcrossConfigChanges) {
  MemoizedPipelineRunner runner(workload());
  const std::vector<PipelineConfig> configs = {
      PipelineConfig::accurate(),
      PipelineConfig::from_lsbs({10, 12, 2, 8, 16}),
      PipelineConfig::from_lsbs({10, 12, 2, 8, 12}),   // suffix change only
      PipelineConfig::from_lsbs({10, 12, 2, 8, 16}),   // revisit
      PipelineConfig::from_lsbs({0, 12, 2, 8, 16}),    // prefix change
      PipelineConfig::uniform(4),
  };
  for (const auto& cfg : configs) {
    const pantompkins::PanTompkinsPipeline fresh(cfg);
    for (std::size_t i = 0; i < runner.num_records(); ++i) {
      const auto want = fresh.run(runner.record(i).adu);
      const auto& got = runner.run(i, cfg);
      EXPECT_EQ(got.lpf, want.lpf);
      EXPECT_EQ(got.hpf, want.hpf);
      EXPECT_EQ(got.der, want.der);
      EXPECT_EQ(got.sqr, want.sqr);
      EXPECT_EQ(got.mwi, want.mwi);
      EXPECT_EQ(got.ops, want.ops);
      EXPECT_EQ(got.detection.peaks, want.detection.peaks);
    }
  }
}

TEST(StageCache, UnchangedPrefixIsNotRecomputed) {
  MemoizedPipelineRunner runner(workload());
  const auto base = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  (void)runner.run_filters(0, base);
  EXPECT_EQ(runner.stats().stage_recomputes, 5u);
  EXPECT_EQ(runner.stats().stage_hits, 0u);

  // Same config again: all five stages served from cache.
  (void)runner.run_filters(0, base);
  EXPECT_EQ(runner.stats().stage_hits, 5u);
  EXPECT_EQ(runner.stats().stage_recomputes, 5u);

  // Only the MWI configuration changes: four hits, one recompute.
  auto mwi_only = base;
  mwi_only.stage[4] = arith::StageArithConfig::uniform(12);
  (void)runner.run_filters(0, mwi_only);
  EXPECT_EQ(runner.stats().stage_hits, 9u);
  EXPECT_EQ(runner.stats().stage_recomputes, 6u);

  // LPF changes: the whole chain is dirty.
  auto lpf_changed = mwi_only;
  lpf_changed.stage[0] = arith::StageArithConfig::uniform(4);
  (void)runner.run_filters(0, lpf_changed);
  EXPECT_EQ(runner.stats().stage_hits, 9u);
  EXPECT_EQ(runner.stats().stage_recomputes, 11u);
}

TEST(StageCache, DetectionReusedWhenFiltersUnchanged) {
  MemoizedPipelineRunner runner(workload());
  const auto cfg = PipelineConfig::uniform(4);
  (void)runner.run(0, cfg);
  EXPECT_EQ(runner.stats().detect_recomputes, 1u);
  (void)runner.run(0, cfg);
  EXPECT_EQ(runner.stats().detect_hits, 1u);
  EXPECT_EQ(runner.stats().detect_recomputes, 1u);
}

TEST(StageCache, RecordsAreCachedIndependently) {
  MemoizedPipelineRunner runner(workload());
  const auto cfg = PipelineConfig::uniform(2);
  (void)runner.run_filters(0, cfg);
  (void)runner.run_filters(1, cfg);  // different record: its own five recomputes
  EXPECT_EQ(runner.stats().stage_recomputes, 10u);
  EXPECT_EQ(runner.stats().stage_hits, 0u);
}

TEST(StageCache, DistinctRecordsRunConcurrentlyAsSerially) {
  const SharedRecords recs = share_records(ecg::nsrdb_like_dataset(4, 4000));
  const std::vector<PipelineConfig> configs = {
      PipelineConfig::from_lsbs({10, 12, 2, 8, 16}),
      PipelineConfig::from_lsbs({10, 12, 2, 8, 12}),
      PipelineConfig::from_lsbs({0, 12, 2, 8, 12}),
      PipelineConfig::uniform(4),
  };
  // The serial runs, copied out per record and config.
  MemoizedPipelineRunner serial(recs);
  std::vector<std::vector<pantompkins::PipelineResult>> want(recs->size());
  for (const PipelineConfig& cfg : configs) {
    for (std::size_t i = 0; i < recs->size(); ++i) want[i].push_back(serial.run(i, cfg));
  }

  // The same runs on one runner, one thread per record.
  MemoizedPipelineRunner shared(recs);
  std::vector<std::vector<pantompkins::PipelineResult>> got(recs->size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < recs->size(); ++i) {
      threads.emplace_back([&, i] {
        for (const PipelineConfig& cfg : configs) got[i].push_back(shared.run(i, cfg));
      });
    }
  }
  for (std::size_t i = 0; i < recs->size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size());
    for (std::size_t k = 0; k < want[i].size(); ++k) {
      EXPECT_EQ(got[i][k].mwi, want[i][k].mwi) << "record " << i << ", config " << k;
      EXPECT_EQ(got[i][k].hpf, want[i][k].hpf) << "record " << i << ", config " << k;
      EXPECT_EQ(got[i][k].ops, want[i][k].ops) << "record " << i << ", config " << k;
      EXPECT_EQ(got[i][k].detection.peaks, want[i][k].detection.peaks)
          << "record " << i << ", config " << k;
    }
  }
  EXPECT_EQ(shared.stats(), serial.stats());
  EXPECT_EQ(shared.stats().runs, configs.size() * recs->size());
}

TEST(Evaluators, ExposeCacheStats) {
  PreprocPsnrEvaluator pre(workload());
  ASSERT_NE(pre.cache_stats(), nullptr);
  (void)pre.evaluate(Design{{Stage::Hpf, 8}});
  (void)pre.evaluate(Design{{Stage::Hpf, 10}});
  // Second evaluation changed only the HPF: the LPF stage (and nothing else
  // upstream) must have been served from cache for every record.
  EXPECT_GT(pre.cache_stats()->stage_hits, 0u);

  AccuracyEvaluator acc(workload());
  ASSERT_NE(acc.cache_stats(), nullptr);
  EXPECT_DOUBLE_EQ(acc.evaluate(Design{}), 100.0);
  (void)acc.evaluate(Design{{Stage::Mwi, 8}});
  EXPECT_GT(acc.cache_stats()->stage_hits, 0u);
}

TEST(StageCacheStatsArithmetic, DeltaAndHitRate) {
  const StageCacheStats a{10, 8, 2, 3, 1};
  const StageCacheStats b{4, 3, 1, 1, 1};
  const StageCacheStats d = a - b;
  EXPECT_EQ(d.runs, 6u);
  EXPECT_EQ(d.stage_hits, 5u);
  EXPECT_EQ(d.stage_recomputes, 1u);
  EXPECT_NEAR(a.stage_hit_rate(), 0.8, 1e-12);
  EXPECT_EQ(StageCacheStats{}.stage_hit_rate(), 0.0);
}

}  // namespace
}  // namespace xbs::explore
