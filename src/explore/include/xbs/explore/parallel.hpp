/// \file parallel.hpp
/// \brief The multi-core exploration engine: a fork-join `WorkerPool`
/// running exhaustive/heuristic grid shards and batches of Algorithm 1
/// problems, with deterministic merging.
///
/// Grids: the unit of work is a *shard* — a contiguous slice of the
/// evaluation order (pipeline_order) whose boundaries depend only on the
/// problem (fixed shard grain), never on the thread count or on scheduling.
/// Each shard is evaluated by a fresh evaluator built from a caller-supplied
/// factory (per-thread MemoizedPipelineRunners over a shared immutable
/// workload/accurate reference — see SharedRecords / SharedPsnrReference),
/// so a shard's points *and its stage-cache deltas* are a pure function of
/// the shard. Each point is written back to its enumeration-order slot.
/// Consequently the merged GridResult — points, evaluation count and cache
/// counters — is bit-identical for 1, 2 or N threads (asserted in
/// tests/test_parallel_explore.cpp), whichever thread claims which shard.
///
/// Algorithm 1 batches: one evaluator per job, and one memo per call, shared
/// by the jobs, from candidate design to quality, so each distinct design is
/// evaluated once per batch. The batch's threads also share the work inside
/// an evaluation: its records go out through for_each_record, and a thread
/// that waits on another job's design, or has no job left, runs records of
/// the batch's in-flight evaluations. Every job's result is bit-identical
/// across thread counts and to serial design_generation, except
/// Algorithm1Result::cache (see design_generation_batch).
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

/// Builds one evaluator per grid shard or Algorithm 1 job. Capture a
/// SharedRecords (and, for PSNR, a SharedPsnrReference) so they share the
/// workload instead of copying it:
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
/// A grid's designs are distinct by construction, so it takes no design memo.
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
/// job, results in job order. Algorithm 1 itself is sequential (each phase
/// depends on the previous accept/reject), so the batch runs its jobs side
/// by side and shares out the records of each evaluation.
///
/// The call owns one memo, shared by its jobs, from the pipeline
/// configuration a candidate runs (to_pipeline_config) to its quality. The
/// first job to ask for a design evaluates it with no lock held; a job that
/// asks for a design another job is evaluating gets that quality instead of
/// scoring the design again. The memo dies with the call, so consecutive
/// batches each do their own work, and it assumes that every evaluator
/// \p factory makes is interchangeable (same records, same AccuracyEvaluator
/// base design). An evaluation that throws reaches every job that asked for
/// the design, and the batch rethrows it.
///
/// With more than one thread, the call also shares out records. An
/// evaluation's for_each_record loop is open to every thread of the call:
/// its owner claims records one at a time, and so does a thread that waits
/// on another job's design or has no job left, until no job is running.
/// Each record runs on the owning job's evaluator, so a job's stage cache
/// sees every record of its designs. A 1-thread batch shares nothing.
///
/// Every field of every job's result is bit-identical across thread counts
/// and to serial design_generation, with evaluations() and the log still
/// counting every request, except Algorithm1Result::cache: it reports the
/// work the job's own evaluator did, which depends on which job reached a
/// shared design first. The batch's summed cache.runs is deterministic:
/// records x distinct designs in the logs.
[[nodiscard]] std::vector<Algorithm1Result> design_generation_batch(
    const std::vector<Algorithm1Job>& jobs, const EvaluatorFactory& factory,
    const StageEnergyModel& energy, unsigned threads = 0);

/// The per-record loop of one evaluation: runs fn(0) .. fn(n-1) and returns
/// once every call it started has returned, rethrowing the first exception a
/// call threw. On a thread of a multi-thread design_generation_batch, the
/// batch's other threads may run some of the records at the same time;
/// everywhere else (grid shards, serial design_generation, a 1-thread batch)
/// the records run in order on the calling thread. So \p fn must write each
/// record's result to its own slot, touch no state another record writes
/// (MemoizedPipelineRunner keeps each record's apart), and not wait on
/// another thread.
void for_each_record(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace xbs::explore
