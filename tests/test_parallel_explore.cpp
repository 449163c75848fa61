// Determinism of the multi-core exploration engine: the merged grid results —
// points, evaluation counts AND stage-cache counters — must be bit-identical
// for any thread count, and the parallel grids must agree point-for-point
// with the serial explorers. An Algorithm 1 batch matches serial
// design_generation in every field but the per-job cache counters, and
// evaluates each distinct design exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "xbs/ecg/dataset.hpp"
#include "xbs/explore/parallel.hpp"

namespace xbs::explore {
namespace {

using pantompkins::Stage;

SharedRecords small_workload() {
  std::vector<ecg::DigitizedRecord> recs = {ecg::nsrdb_like_digitized(0, 3000)};
  return share_records(std::move(recs));
}

void expect_same_points(const GridResult& a, const GridResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].design, b.points[i].design) << "point " << i;
    EXPECT_EQ(a.points[i].quality, b.points[i].quality) << "point " << i;
    EXPECT_EQ(a.points[i].energy_reduction, b.points[i].energy_reduction) << "point " << i;
    EXPECT_EQ(a.points[i].satisfied, b.points[i].satisfied) << "point " << i;
  }
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reusable across calls.
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(WorkerPool, PropagatesTaskExceptions) {
  WorkerPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed run.
  std::atomic<int> n{0};
  pool.parallel_for(4, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 4);
}

TEST(WorkerPool, ExceptionHandoffIsRaceFreeUnderChurn) {
  // Regression for the error-slot handoff: parallel_for must collect the
  // exception inside the completion critical section, so a throw landing on
  // the very last task of a run can never be read torn or leak into the next
  // run. Alternate failing and clean runs to catch cross-run contamination.
  WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const std::size_t fail_at = static_cast<std::size_t>(round % 8);
    EXPECT_THROW(pool.parallel_for(8,
                                   [&](std::size_t i) {
                                     if (i == fail_at) throw std::runtime_error("churn");
                                   }),
                 std::runtime_error);
    std::atomic<int> n{0};
    pool.parallel_for(8, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
  }
}

TEST(WorkerPool, NoTaskOutlivesAThrowingCall) {
  // The engine's tasks capture the caller's locals by reference, so a call
  // that rethrows must first have joined every task it started: once the
  // exception is caught, no task may still be running.
  const WorkerPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 0) {
                                     // Throw once another task is under way.
                                     while (started.load() == 0) std::this_thread::yield();
                                     throw std::runtime_error("boom");
                                   }
                                   ++started;
                                   std::this_thread::sleep_for(std::chrono::milliseconds(20));
                                   ++finished;
                                 }),
               std::runtime_error);
  EXPECT_GT(started.load(), 0);
  EXPECT_EQ(started.load(), finished.load());
}

TEST(ParallelExhaustive, BitIdenticalAcrossThreadCounts) {
  const SharedRecords recs = small_workload();
  const EvaluatorFactory factory = [recs] {
    return std::make_unique<AccuracyEvaluator>(recs);
  };
  const StageEnergyModel energy;
  const std::vector<StageSpace> spaces = {
      StageSpace{Stage::Lpf, {0, 8, 16}, 1.0},
      StageSpace{Stage::Hpf, {0, 8, 16}, 1.0},
      StageSpace{Stage::Der, {0, 2, 4}, 1.0},
  };

  ParallelExploreOptions opts;
  opts.shard_designs = 4;  // force many shards
  std::vector<GridResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    opts.threads = threads;
    results.push_back(
        exhaustive_explore_parallel(spaces, ModuleLists{}, factory, energy, 99.0, opts));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_same_points(results[0], results[i]);
    EXPECT_EQ(results[0].cache, results[i].cache) << "thread count " << i;
  }

  // Same design sequence and values as the serial explorer.
  AccuracyEvaluator serial_eval(recs);
  const GridResult serial =
      exhaustive_explore(spaces, ModuleLists{}, serial_eval, energy, 99.0);
  expect_same_points(serial, results[0]);
}

TEST(ParallelHeuristic, BitIdenticalAcrossThreadCounts) {
  const SharedRecords recs = small_workload();
  const SharedPsnrReference ref = make_psnr_reference(*recs);
  const EvaluatorFactory factory = [recs, ref] {
    return std::make_unique<PreprocPsnrEvaluator>(recs, ref);
  };
  const StageEnergyModel energy;
  const std::vector<StageSpace> spaces = {
      StageSpace{Stage::Lpf, {0, 8, 16}, 1.0},
      StageSpace{Stage::Hpf, {0, 8, 16}, 1.0},
  };
  const ModuleLists lists{{AdderKind::Approx5, AdderKind::Approx2}, {MultKind::V1}};

  ParallelExploreOptions opts;
  opts.shard_designs = 3;
  std::vector<GridResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    opts.threads = threads;
    results.push_back(
        heuristic_explore_parallel(spaces, lists, factory, energy, 20.0, opts));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_same_points(results[0], results[i]);
    EXPECT_EQ(results[0].cache, results[i].cache);
  }

  PreprocPsnrEvaluator serial_eval(recs);
  const GridResult serial = heuristic_explore(spaces, lists, serial_eval, energy, 20.0);
  expect_same_points(serial, results[0]);
}

/// Every field but `cache`, which reports the work the job's own evaluator
/// did and so depends on which job of a batch reached a shared design first.
void expect_same_alg1(const Algorithm1Result& a, const Algorithm1Result& b) {
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_quality, b.best_quality);
  EXPECT_EQ(a.energy_reduction, b.energy_reduction);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].design, b.log[i].design) << "log " << i;
    EXPECT_EQ(a.log[i].quality, b.log[i].quality) << "log " << i;
    EXPECT_EQ(a.log[i].satisfied, b.log[i].satisfied) << "log " << i;
    EXPECT_EQ(a.log[i].phase, b.log[i].phase) << "log " << i;
  }
}

/// Designs a batch's logs name, each counted once (by the configuration it
/// runs, the batch memo's key).
std::size_t distinct_designs(const std::vector<Algorithm1Result>& batch) {
  std::vector<pantompkins::PipelineConfig> seen;
  for (const Algorithm1Result& r : batch) {
    for (const ExploredPoint& p : r.log) {
      const pantompkins::PipelineConfig cfg = to_pipeline_config(p.design);
      if (std::find(seen.begin(), seen.end(), cfg) == seen.end()) seen.push_back(cfg);
    }
  }
  return seen.size();
}

/// Stage-cache runs summed over a batch's jobs.
u64 summed_runs(const std::vector<Algorithm1Result>& batch) {
  u64 runs = 0;
  for (const Algorithm1Result& r : batch) runs += r.cache.runs;
  return runs;
}

StageSpace space_of(const StageEnergyModel& energy, Stage s) {
  return StageSpace{s, default_lsb_list(s),
                    energy.stage_energy_reduction(
                        s, StageDesign{s, default_lsb_list(s).back()}.arith_config())};
}

TEST(DesignGenerationBatch, BitIdenticalAcrossThreadCountsAndToSerial) {
  const SharedRecords recs = small_workload();
  const EvaluatorFactory factory = [recs] {
    return std::make_unique<AccuracyEvaluator>(recs);
  };
  const StageEnergyModel energy;

  std::vector<Algorithm1Job> jobs;
  for (const double constraint : {99.5, 99.0, 97.0}) {
    jobs.push_back(Algorithm1Job{{space_of(energy, Stage::Lpf), space_of(energy, Stage::Hpf)},
                                 ModuleLists{},
                                 constraint});
  }

  std::vector<std::vector<Algorithm1Result>> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    runs.push_back(design_generation_batch(jobs, factory, energy, threads));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[0].size(), runs[r].size());
    for (std::size_t j = 0; j < jobs.size(); ++j) expect_same_alg1(runs[0][j], runs[r][j]);
  }
  // Each distinct design runs once over every record, whichever job got it.
  for (const auto& run : runs) {
    EXPECT_EQ(summed_runs(run), recs->size() * distinct_designs(run));
  }

  // Job order in the batch result matches serial execution of each job.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    AccuracyEvaluator serial_eval(recs);
    const Algorithm1Result serial = design_generation(
        jobs[j].spaces, jobs[j].lists, serial_eval, energy, jobs[j].quality_constraint);
    expect_same_alg1(serial, runs[0][j]);
  }
}

/// A cheap stand-in for the pipeline evaluators: quality falls with the LSBs
/// a design approximates, and every call counts in a counter shared by all
/// the evaluators of one factory. A call on `poison` throws.
class CountingEvaluator final : public QualityEvaluator {
 public:
  explicit CountingEvaluator(std::atomic<int>& calls, Design poison = {})
      : calls_(calls), poison_(std::move(poison)) {}
  [[nodiscard]] std::string_view metric_name() const noexcept override { return "synthetic"; }

 protected:
  [[nodiscard]] double evaluate_impl(const Design& d) override {
    ++calls_;
    // Long enough for the batch's jobs to meet on an in-flight design.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (!poison_.empty() && d == poison_) throw std::runtime_error("poisoned design");
    double q = 100.0;
    for (const StageDesign& sd : d) {
      q -= 0.01 * (1 + static_cast<int>(sd.stage)) * sd.lsbs * sd.lsbs;
    }
    return q;
  }

 private:
  std::atomic<int>& calls_;
  Design poison_;
};

/// The dse_paper batch shape: eight constraints over the same three stages.
std::vector<Algorithm1Job> eight_jobs(const StageEnergyModel& energy) {
  std::vector<Algorithm1Job> jobs;
  for (const double q : {99.9, 99.5, 99.0, 98.5, 98.0, 97.0, 96.0, 95.0}) {
    jobs.push_back(Algorithm1Job{{space_of(energy, Stage::Lpf), space_of(energy, Stage::Hpf),
                                  space_of(energy, Stage::Mwi)},
                                 ModuleLists{},
                                 q});
  }
  return jobs;
}

TEST(DesignGenerationBatch, EvaluatesEachDistinctDesignOnce) {
  const StageEnergyModel energy;
  const std::vector<Algorithm1Job> jobs = eight_jobs(energy);
  std::atomic<int> calls{0};
  const EvaluatorFactory factory = [&calls] {
    return std::make_unique<CountingEvaluator>(calls);
  };

  std::vector<Algorithm1Result> first;
  for (int rep = 0; rep < 5; ++rep) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      calls = 0;
      const std::vector<Algorithm1Result> batch =
          design_generation_batch(jobs, factory, energy, threads);
      const std::size_t distinct = distinct_designs(batch);
      EXPECT_EQ(static_cast<std::size_t>(calls.load()), distinct)
          << "rep " << rep << ", " << threads << " threads";
      int logical = 0;
      for (const Algorithm1Result& r : batch) logical += r.evaluations;
      EXPECT_LT(distinct, static_cast<std::size_t>(logical));  // the jobs do share designs
      if (first.empty()) first = batch;
      for (std::size_t j = 0; j < jobs.size(); ++j) expect_same_alg1(first[j], batch[j]);
    }
  }
}

TEST(DesignGenerationBatch, MemoDoesNotOutliveItsCall) {
  const StageEnergyModel energy;
  const std::vector<Algorithm1Job> jobs = eight_jobs(energy);
  std::atomic<int> calls{0};
  const EvaluatorFactory factory = [&calls] {
    return std::make_unique<CountingEvaluator>(calls);
  };
  (void)design_generation_batch(jobs, factory, energy, 4);
  const int once = calls.load();
  EXPECT_GT(once, 0);
  (void)design_generation_batch(jobs, factory, energy, 4);
  EXPECT_EQ(calls.load(), 2 * once);
}

TEST(DesignGenerationBatch, RethrowsAnEvaluationErrorEveryJobShares) {
  const StageEnergyModel energy;
  const std::vector<Algorithm1Job> jobs = eight_jobs(energy);
  std::atomic<int> calls{0};
  // Every job opens phase 1 on the same design, so all of them reach it:
  // the owner throws and the jobs waiting on its entry rethrow.
  const Design shared_first = [&] {
    CountingEvaluator eval(calls);
    return design_generation(jobs[0].spaces, jobs[0].lists, eval, energy,
                             jobs[0].quality_constraint)
        .log.front()
        .design;
  }();
  const EvaluatorFactory factory = [&calls, &shared_first] {
    return std::make_unique<CountingEvaluator>(calls, shared_first);
  };
  for (const unsigned threads : {1u, 2u, 8u}) {
    calls = 0;
    EXPECT_THROW((void)design_generation_batch(jobs, factory, energy, threads),
                 std::runtime_error)
        << threads << " threads";
    EXPECT_EQ(calls.load(), 1) << threads << " threads";
  }
}

TEST(DesignGenerationBatch, BaseDesignMatchesSerial) {
  // The final quality stage: a fixed pre-processing design under every
  // candidate, as AccuracyEvaluator's base.
  const SharedRecords recs = small_workload();
  const Design base = {StageDesign{Stage::Lpf, 8}, StageDesign{Stage::Hpf, 8}};
  const EvaluatorFactory factory = [recs, base] {
    return std::make_unique<AccuracyEvaluator>(recs, base);
  };
  const StageEnergyModel energy;
  std::vector<Algorithm1Job> jobs;
  for (const double constraint : {99.5, 98.0, 95.0}) {
    jobs.push_back(Algorithm1Job{{space_of(energy, Stage::Sqr), space_of(energy, Stage::Mwi)},
                                 ModuleLists{},
                                 constraint});
  }
  const std::vector<Algorithm1Result> batch = design_generation_batch(jobs, factory, energy, 8);
  EXPECT_EQ(summed_runs(batch), recs->size() * distinct_designs(batch));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    AccuracyEvaluator serial_eval(recs, base);
    const Algorithm1Result serial = design_generation(
        jobs[j].spaces, jobs[j].lists, serial_eval, energy, jobs[j].quality_constraint);
    expect_same_alg1(serial, batch[j]);
  }
}

}  // namespace
}  // namespace xbs::explore
