/// \file parallel.hpp
/// \brief The multi-core exploration engine: a fork-join `WorkerPool`
/// running exhaustive/heuristic grid shards and independent Algorithm 1
/// problems, with deterministic merging.
///
/// Design for determinism: the unit of work is a *shard* — a contiguous
/// slice of the enumeration order whose boundaries depend only on the
/// problem (fixed shard grain), never on the thread count or on scheduling.
/// Each shard is evaluated by a fresh evaluator built from a caller-supplied
/// factory (per-thread MemoizedPipelineRunners over a shared immutable
/// workload/accurate reference — see SharedRecords / SharedPsnrReference),
/// so a shard's points *and its stage-cache deltas* are a pure function of
/// the shard. Results are merged in shard order. Consequently the merged
/// GridResult — points, evaluation count and cache counters — is
/// bit-identical for 1, 2 or N threads (asserted in
/// tests/test_parallel_explore.cpp), whichever thread claims which shard.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "xbs/explore/algorithm1.hpp"
#include "xbs/explore/exhaustive.hpp"

namespace xbs::explore {

/// A fork-join over a fixed thread count. Each parallel_for starts its
/// threads (the caller is one of them), they claim task indices from one
/// atomic counter, and the call joins them all before it returns: no thread
/// outlives a call and nothing is locked. Task outputs must go to per-task
/// slots (the engine's shards do), which keeps results independent of which
/// thread ran which task.
class WorkerPool {
 public:
  /// \p threads == 0 picks hardware concurrency.
  explicit WorkerPool(unsigned threads = 0);

  [[nodiscard]] unsigned size() const noexcept { return threads_; }

  /// Run fn(0) .. fn(n-1) across the threads; returns when every started
  /// task has finished. The first exception thrown by any task is rethrown
  /// here (remaining tasks are skipped on a best-effort basis).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const;

 private:
  unsigned threads_;
};

/// Builds one evaluator per shard. Capture a SharedRecords (and, for PSNR, a
/// SharedPsnrReference) so shards share the workload instead of copying it:
///
///   auto recs = share_records(std::move(records));
///   auto factory = [recs] { return std::make_unique<AccuracyEvaluator>(recs); };
using EvaluatorFactory = std::function<std::unique_ptr<QualityEvaluator>()>;

/// Tuning knobs of the parallel engine.
struct ParallelExploreOptions {
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// Designs per shard. Shard boundaries are a function of this grain and the
  /// problem only, so two runs with different thread counts produce
  /// bit-identical merged results; the grain trades evaluator-construction
  /// overhead against load-balance granularity.
  std::size_t shard_designs = 64;
};

/// exhaustive_explore over all cores: identical design sequence, identical
/// points, deterministic cache counters (the sum of the per-shard deltas).
[[nodiscard]] GridResult exhaustive_explore_parallel(const std::vector<StageSpace>& spaces,
                                                     const ModuleLists& lists,
                                                     const EvaluatorFactory& factory,
                                                     const StageEnergyModel& energy,
                                                     double quality_constraint,
                                                     const ParallelExploreOptions& opts = {});

/// heuristic_explore over all cores (same contract).
[[nodiscard]] GridResult heuristic_explore_parallel(const std::vector<StageSpace>& spaces,
                                                    const ModuleLists& lists,
                                                    const EvaluatorFactory& factory,
                                                    const StageEnergyModel& energy,
                                                    double quality_constraint,
                                                    const ParallelExploreOptions& opts = {});

/// One independent Algorithm 1 problem of a batch (serving many users'
/// design-generation requests, or sweeping constraints/stage subsets).
struct Algorithm1Job {
  std::vector<StageSpace> spaces;
  ModuleLists lists;
  double quality_constraint = 0.0;
};

/// Run a batch of Algorithm 1 problems across the pool, one evaluator per
/// job, results in job order — Algorithm 1 itself is inherently sequential
/// (each phase depends on the previous accept/reject), so the engine
/// parallelizes across problems, not within one. Bit-identical to running
/// the jobs serially in order.
[[nodiscard]] std::vector<Algorithm1Result> design_generation_batch(
    const std::vector<Algorithm1Job>& jobs, const EvaluatorFactory& factory,
    const StageEnergyModel& energy, unsigned threads = 0);

}  // namespace xbs::explore
