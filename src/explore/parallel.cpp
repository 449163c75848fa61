#include "xbs/explore/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <future>
#include <span>
#include <thread>
#include <utility>

#include "xbs/common/memo.hpp"

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
  const std::vector<std::size_t> order = pipeline_order(designs, lists);
  const std::size_t grain = std::max<std::size_t>(1, opts.shard_designs);
  // Shards are slices of the evaluation order whose boundaries depend on the
  // grain and the grid only — never on the thread count — so the merged
  // result is bit-identical for any pool size.
  const std::size_t n_shards = (designs.size() + grain - 1) / grain;
  std::vector<GridResult> shards(n_shards);

  WorkerPool pool(opts.threads);
  pool.parallel_for(n_shards, [&](std::size_t s) {
    const std::size_t begin = s * grain;
    const std::size_t end = std::min(designs.size(), begin + grain);
    shards[s] = evaluate_designs(designs, std::span(order).subspan(begin, end - begin),
                                 *factory(), energy, quality_constraint);
  });

  GridResult result;
  result.points.resize(designs.size());
  for (std::size_t s = 0; s < n_shards; ++s) {
    for (std::size_t k = 0; k < shards[s].points.size(); ++k) {
      result.points[order[s * grain + k]] = std::move(shards[s].points[k]);
    }
    result.evaluations += shards[s].evaluations;
    result.cache = result.cache + shards[s].cache;
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

namespace {

/// A batch's memo from the pipeline configuration a candidate runs to its
/// quality. The entry is published in flight, before the quality exists, so a
/// job that asks for a design another job is evaluating finds it.
using DesignMemo = common::Memo<pantompkins::PipelineConfig, std::shared_future<double>>;

/// One job's evaluator in a batch: the factory's evaluator behind the batch's
/// DesignMemo. The first job to ask for a design evaluates it with no lock
/// held; every other job that asks waits for that quality instead of scoring
/// the design again. evaluations() stays logical — every request counts, as
/// in serial design_generation — while cache_stats() is the work this job's
/// own evaluator did.
///
/// The key assumes that every evaluator one factory makes is interchangeable:
/// the same records and, for an AccuracyEvaluator, the same base design. The
/// engine's determinism already relies on that. Algorithm 1 lists only the
/// stages it approximates, so the key fixes the merged design too: equal keys
/// mean equal qualities.
class SharedDesignEvaluator final : public QualityEvaluator {
 public:
  SharedDesignEvaluator(std::unique_ptr<QualityEvaluator> inner, DesignMemo& memo)
      : inner_(std::move(inner)), memo_(memo) {}

  [[nodiscard]] std::string_view metric_name() const noexcept override {
    return inner_->metric_name();
  }
  [[nodiscard]] const StageCacheStats* cache_stats() const noexcept override {
    return inner_->cache_stats();
  }

 protected:
  [[nodiscard]] double evaluate_impl(const Design& d) override {
    // The owner's promise is the entry's guard: if the owner leaves without
    // filling it, its destructor stores broken_promise, so no waiter waits
    // forever. An evaluation that throws is stored, and the owner and every
    // waiter rethrow it from get().
    std::promise<double> promise;
    DesignMemo::Ptr mine;
    const DesignMemo::Ptr entry = memo_.get(to_pipeline_config(d), [&] {
      mine = std::make_shared<const std::shared_future<double>>(promise.get_future().share());
      return mine;
    });
    if (entry == mine) {
      try {
        promise.set_value(inner_->evaluate(d));
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    // A worker may sleep here on another job's design, never holding a lock.
    assert(common::detail::held_rank_count() == 0);
    return entry->get();
  }

 private:
  std::unique_ptr<QualityEvaluator> inner_;
  DesignMemo& memo_;
};

}  // namespace

std::vector<Algorithm1Result> design_generation_batch(const std::vector<Algorithm1Job>& jobs,
                                                      const EvaluatorFactory& factory,
                                                      const StageEnergyModel& energy,
                                                      unsigned threads) {
  DesignMemo memo;
  std::vector<Algorithm1Result> results(jobs.size());
  WorkerPool pool(threads);
  pool.parallel_for(jobs.size(), [&](std::size_t j) {
    SharedDesignEvaluator evaluator(factory(), memo);
    results[j] = design_generation(jobs[j].spaces, jobs[j].lists, evaluator, energy,
                                   jobs[j].quality_constraint);
  });
  return results;
}

}  // namespace xbs::explore
