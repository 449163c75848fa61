#include "xbs/explore/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <span>
#include <thread>
#include <utility>

namespace xbs::explore {

// ------------------------------------------------------------------ WorkerPool

WorkerPool::WorkerPool(unsigned threads)
    : threads_(threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency())) {}

void WorkerPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Written once, by the thread that wins the exchange on `failed`; read
  // only after the joins, which order that write before the read.
  std::exception_ptr error;
  auto work = [&] {
    while (!failed.load()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  };
  {
    // jthreads join on destruction, so even a failed spawn unwinds only
    // after every started task has finished: the tasks may capture the
    // caller's locals by reference.
    const std::size_t nthreads = std::min<std::size_t>(threads_, n);
    std::vector<std::jthread> helpers;
    helpers.reserve(nthreads - 1);
    for (std::size_t t = 1; t < nthreads; ++t) helpers.emplace_back(work);
    work();  // the calling thread is one of the pool's threads
  }
  if (error != nullptr) std::rethrow_exception(error);
}

// ------------------------------------------------------------- grid sharding

namespace {

GridResult run_grid_parallel(const std::vector<StageSpace>& spaces, const ModuleLists& lists,
                             bool per_stage_modules, const EvaluatorFactory& factory,
                             const StageEnergyModel& energy, double quality_constraint,
                             const ParallelExploreOptions& opts) {
  const std::vector<Design> designs =
      enumerate_grid_designs(spaces, lists, per_stage_modules);
  const std::size_t grain = std::max<std::size_t>(1, opts.shard_designs);
  // Shard boundaries depend on the grain and the grid only — never on the
  // thread count — so the merged result is bit-identical for any pool size.
  const std::size_t n_shards = (designs.size() + grain - 1) / grain;
  std::vector<GridResult> shards(n_shards);

  WorkerPool pool(opts.threads);
  pool.parallel_for(n_shards, [&](std::size_t s) {
    const std::size_t begin = s * grain;
    const std::size_t end = std::min(designs.size(), begin + grain);
    shards[s] = evaluate_designs(std::span(designs).subspan(begin, end - begin), *factory(),
                                 energy, quality_constraint);
  });

  GridResult result;
  result.points.reserve(designs.size());
  for (GridResult& s : shards) {
    for (GridPoint& p : s.points) result.points.push_back(std::move(p));
    result.evaluations += s.evaluations;
    result.cache = result.cache + s.cache;
  }
  return result;
}

}  // namespace

GridResult exhaustive_explore_parallel(const std::vector<StageSpace>& spaces,
                                       const ModuleLists& lists,
                                       const EvaluatorFactory& factory,
                                       const StageEnergyModel& energy,
                                       double quality_constraint,
                                       const ParallelExploreOptions& opts) {
  return run_grid_parallel(spaces, lists, true, factory, energy, quality_constraint, opts);
}

GridResult heuristic_explore_parallel(const std::vector<StageSpace>& spaces,
                                      const ModuleLists& lists,
                                      const EvaluatorFactory& factory,
                                      const StageEnergyModel& energy,
                                      double quality_constraint,
                                      const ParallelExploreOptions& opts) {
  return run_grid_parallel(spaces, lists, false, factory, energy, quality_constraint, opts);
}

// ------------------------------------------------------- Algorithm 1 batches

std::vector<Algorithm1Result> design_generation_batch(const std::vector<Algorithm1Job>& jobs,
                                                      const EvaluatorFactory& factory,
                                                      const StageEnergyModel& energy,
                                                      unsigned threads) {
  std::vector<Algorithm1Result> results(jobs.size());
  WorkerPool pool(threads);
  pool.parallel_for(jobs.size(), [&](std::size_t j) {
    const std::unique_ptr<QualityEvaluator> evaluator = factory();
    results[j] = design_generation(jobs[j].spaces, jobs[j].lists, *evaluator, energy,
                                   jobs[j].quality_constraint);
  });
  return results;
}

}  // namespace xbs::explore
