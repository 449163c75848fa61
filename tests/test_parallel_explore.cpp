// Determinism of the multi-core exploration engine: the merged grid results —
// points, evaluation counts AND stage-cache counters — must be bit-identical
// for any thread count, and the parallel grids must agree point-for-point
// with the serial explorers. An Algorithm 1 batch matches serial
// design_generation in every field but the per-job cache counters, evaluates
// each distinct design exactly once, and shares each evaluation's records
// out among its threads; nothing else does.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "xbs/ecg/dataset.hpp"
#include "xbs/explore/parallel.hpp"

namespace xbs::explore {
namespace {

using pantompkins::Stage;

SharedRecords small_workload() { return share_records(ecg::nsrdb_like_dataset(3, 3000)); }

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

/// A synthetic quality that falls with the LSBs a design approximates.
double synthetic_quality(const Design& d) {
  double q = 100.0;
  for (const StageDesign& sd : d) {
    q -= 0.01 * (1 + static_cast<int>(sd.stage)) * sd.lsbs * sd.lsbs;
  }
  return q;
}

/// A cheap stand-in for the pipeline evaluators: every call counts in a
/// counter shared by all the evaluators of one factory. A call on `poison`
/// throws.
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
    return synthetic_quality(d);
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

/// The design every job of \p jobs opens phase 1 on.
Design shared_first_design(const std::vector<Algorithm1Job>& jobs,
                           const StageEnergyModel& energy) {
  std::atomic<int> calls{0};
  CountingEvaluator eval(calls);
  return design_generation(jobs[0].spaces, jobs[0].lists, eval, energy,
                           jobs[0].quality_constraint)
      .log.front()
      .design;
}

TEST(DesignGenerationBatch, RethrowsAnEvaluationErrorEveryJobShares) {
  const StageEnergyModel energy;
  const std::vector<Algorithm1Job> jobs = eight_jobs(energy);
  std::atomic<int> calls{0};
  // Every job opens phase 1 on the same design, so all of them reach it:
  // the owner throws and the jobs waiting on its entry rethrow.
  const Design shared_first = shared_first_design(jobs, energy);
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

/// A stand-in whose designs have three records, run through
/// for_each_record as AccuracyEvaluator's are. Every record run calls
/// `on_record` with the thread that called evaluate().
class RecordEvaluator final : public QualityEvaluator {
 public:
  using OnRecord = std::function<void(const Design&, std::size_t, std::thread::id)>;
  static constexpr std::size_t kRecords = 3;

  explicit RecordEvaluator(OnRecord on_record) : on_record_(std::move(on_record)) {}
  [[nodiscard]] std::string_view metric_name() const noexcept override { return "synthetic"; }

 protected:
  [[nodiscard]] double evaluate_impl(const Design& d) override {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<double> q(kRecords);
    for_each_record(q.size(), [&](std::size_t i) {
      on_record_(d, i, caller);
      q[i] = synthetic_quality(d) - 0.001 * static_cast<double>(i);
    });
    return (q[0] + q[1] + q[2]) / 3.0;
  }

 private:
  OnRecord on_record_;
};

/// The (design, record) runs of one test, from any thread.
class RecordLedger {
 public:
  void add(const Design& d, std::size_t record) {
    const std::lock_guard lock(mu_);
    runs_.emplace_back(to_pipeline_config(d), record);
  }
  [[nodiscard]] std::size_t runs() const {
    const std::lock_guard lock(mu_);
    return runs_.size();
  }
  [[nodiscard]] std::size_t runs_of(const Design& d, std::size_t record) const {
    const std::lock_guard lock(mu_);
    return static_cast<std::size_t>(
        std::count(runs_.begin(), runs_.end(), std::pair(to_pipeline_config(d), record)));
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<pantompkins::PipelineConfig, std::size_t>> runs_;
};

TEST(DesignGenerationBatch, RunsOneEvaluationsRecordsOnSeveralThreads) {
  const StageEnergyModel energy;
  const std::vector<Algorithm1Job> jobs = eight_jobs(energy);
  const Design first = shared_first_design(jobs, energy);
  for (const unsigned threads : {2u, 8u}) {
    RecordLedger ledger;
    std::thread::id record1_thread;
    std::atomic<bool> record1_started{false};
    bool overlapped = false;
    // Record 0 of the design every job opens on waits until record 1 of it
    // has started, which only another thread of the batch can do.
    const RecordEvaluator::OnRecord on_record = [&](const Design& d, std::size_t i,
                                                     std::thread::id) {
      ledger.add(d, i);
      if (!(d == first)) return;
      if (i == 1) {
        record1_thread = std::this_thread::get_id();
        record1_started = true;
      } else if (i == 0) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!record1_started && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        overlapped = record1_started && record1_thread != std::this_thread::get_id();
      }
    };
    const EvaluatorFactory factory = [&on_record] {
      return std::make_unique<RecordEvaluator>(on_record);
    };
    const std::vector<Algorithm1Result> batch =
        design_generation_batch(jobs, factory, energy, threads);
    EXPECT_TRUE(overlapped) << threads << " threads";

    // Each (design, record) pair ran exactly once.
    EXPECT_EQ(ledger.runs(), RecordEvaluator::kRecords * distinct_designs(batch));
    for (const Algorithm1Result& r : batch) {
      for (const ExploredPoint& p : r.log) {
        for (std::size_t i = 0; i < RecordEvaluator::kRecords; ++i) {
          EXPECT_EQ(ledger.runs_of(p.design, i), 1u) << threads << " threads, record " << i;
        }
      }
    }

    const RecordEvaluator::OnRecord quiet = [](const Design&, std::size_t, std::thread::id) {};
    const std::vector<Algorithm1Result> serial = design_generation_batch(
        jobs, [&quiet] { return std::make_unique<RecordEvaluator>(quiet); }, energy, 1);
    for (std::size_t j = 0; j < jobs.size(); ++j) expect_same_alg1(serial[j], batch[j]);
  }
}

TEST(DesignGenerationBatch, RethrowsARecordErrorEveryJobShares) {
  const StageEnergyModel energy;
  const std::vector<Algorithm1Job> eight = eight_jobs(energy);
  const Design first = shared_first_design(eight, energy);
  // Two jobs leave most of 8 threads with no job: they must stop helping
  // once the jobs have thrown.
  for (const int n_jobs : {8, 2}) {
    const std::vector<Algorithm1Job> jobs(eight.begin(), eight.begin() + n_jobs);
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << n_jobs << " jobs, " << threads << " threads");
      RecordLedger ledger;
      // Record 1 of the design every job opens on throws, whichever thread
      // runs it.
      const RecordEvaluator::OnRecord on_record = [&](const Design& d, std::size_t i,
                                                       std::thread::id) {
        ledger.add(d, i);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (d == first && i == 1) throw std::runtime_error("poisoned record");
      };
      const EvaluatorFactory factory = [&on_record] {
        return std::make_unique<RecordEvaluator>(on_record);
      };
      EXPECT_THROW((void)design_generation_batch(jobs, factory, energy, threads),
                   std::runtime_error);
      // No job got past the shared design, and none of its records ran twice.
      EXPECT_EQ(ledger.runs_of(first, 0) + ledger.runs_of(first, 1) + ledger.runs_of(first, 2),
                ledger.runs());
      for (std::size_t i = 0; i < RecordEvaluator::kRecords; ++i) {
        EXPECT_LE(ledger.runs_of(first, i), 1u) << "record " << i;
      }
      EXPECT_EQ(ledger.runs_of(first, 1), 1u);
    }
  }
}

TEST(ForEachRecord, GridShardsAndSerialRunsKeepRecordsOnTheCallingThread) {
  std::atomic<int> runs{0};
  std::atomic<int> elsewhere{0};
  const RecordEvaluator::OnRecord on_record = [&](const Design&, std::size_t,
                                                   std::thread::id caller) {
    ++runs;
    if (caller != std::this_thread::get_id()) ++elsewhere;
  };
  const EvaluatorFactory factory = [&on_record] {
    return std::make_unique<RecordEvaluator>(on_record);
  };
  const StageEnergyModel energy;

  ParallelExploreOptions opts;
  opts.threads = 4;
  opts.shard_designs = 2;
  const std::vector<StageSpace> spaces = {StageSpace{Stage::Lpf, {0, 8, 16}, 1.0},
                                          StageSpace{Stage::Hpf, {0, 8, 16}, 1.0}};
  (void)exhaustive_explore_parallel(spaces, ModuleLists{}, factory, energy, 99.0, opts);
  (void)heuristic_explore_parallel(spaces, ModuleLists{}, factory, energy, 99.0, opts);
  EXPECT_GT(runs.load(), 0);
  EXPECT_EQ(elsewhere.load(), 0) << "grid shards";

  const std::vector<Algorithm1Job> jobs = eight_jobs(energy);
  runs = 0;
  RecordEvaluator serial_eval(on_record);
  (void)design_generation(jobs[0].spaces, jobs[0].lists, serial_eval, energy,
                          jobs[0].quality_constraint);
  (void)design_generation_batch(jobs, factory, energy, 1);
  EXPECT_GT(runs.load(), 0);
  EXPECT_EQ(elsewhere.load(), 0) << "serial design_generation, 1-thread batch";
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
