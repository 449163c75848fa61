#include "xbs/explore/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <future>
#include <span>
#include <thread>
#include <utility>

#include "xbs/common/memo.hpp"
#include "xbs/common/sync.hpp"

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

/// One evaluation's per-record loop, open to the threads of its batch. `fn`
/// and `n` are fixed; the other fields are guarded by the RecordShare's
/// mutex (a lock in another object, so they carry no annotation).
struct RecordLoop {
  RecordLoop(const std::function<void(std::size_t)>& f, std::size_t count) : fn(f), n(count) {}
  RecordLoop(const RecordLoop&) = delete;
  RecordLoop& operator=(const RecordLoop&) = delete;

  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  std::size_t next = 0;      ///< the next record to claim
  std::size_t running = 0;   ///< records claimed and not yet finished
  std::exception_ptr error;  ///< the first record error
};

bool is_ready(const std::shared_future<double>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

class RecordShare;

/// The batch the calling thread works for; null outside a multi-thread
/// batch, and while the thread runs a record.
thread_local RecordShare* t_share = nullptr;

/// Puts the calling thread in \p share's scope (or in none) until it leaves,
/// even by an exception.
class ShareScope {
 public:
  explicit ShareScope(RecordShare* share) noexcept : prev_(std::exchange(t_share, share)) {}
  ~ShareScope() { t_share = prev_; }
  ShareScope(const ShareScope&) = delete;
  ShareScope& operator=(const ShareScope&) = delete;

 private:
  RecordShare* prev_;
};

/// Runs one record with the thread outside any batch, so whatever the record
/// does runs inline and never waits: returns its exception, if any.
std::exception_ptr run_record(const RecordLoop& loop, std::size_t i) noexcept {
  const ShareScope outside(nullptr);
  try {
    loop.fn(i);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// The records of a batch's in-flight evaluations, shared by the batch's
/// threads. An evaluation's owner opens its loop here and claims records from
/// it; a thread that waits on another job's design, or has no job left,
/// claims records of any open loop. Records are claimed one at a time under
/// one leaf lock, which is never held while a record runs.
///
/// No wait can cycle: an owner waits only for records other threads claimed
/// from its own loop, a record never waits (run_record), and a thread that
/// helps owns no unfilled design.
class RecordShare {
 public:
  explicit RecordShare(std::size_t jobs) : jobs_left_(jobs) {}

  /// The owner's side of for_each_record.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn) XBS_EXCLUDES(mu_) {
    assert(common::detail::held_rank_count() == 0);
    RecordLoop loop(fn, n);
    common::MutexLock lock(mu_);
    open_.push_back(&loop);
    cv_.notify_all();
    while (loop.next < loop.n) {
      const std::size_t i = claim_locked(loop);
      lock.unlock();
      std::exception_ptr error = run_record(loop, i);
      lock.lock();
      settle_locked(loop, std::move(error));
    }
    while (loop.running > 0) cv_.wait(lock);
    lock.unlock();
    if (loop.error != nullptr) std::rethrow_exception(loop.error);
  }

  /// Runs records of open loops until \p awaited is ready or, with no
  /// design awaited, until no job is left (none can then open a loop).
  void help(const std::shared_future<double>* awaited) XBS_EXCLUDES(mu_) {
    assert(common::detail::held_rank_count() == 0);
    common::MutexLock lock(mu_);
    for (;;) {
      if (awaited != nullptr ? is_ready(*awaited) : jobs_left_ == 0) return;
      if (open_.empty()) {
        cv_.wait(lock);
        continue;
      }
      RecordLoop& loop = *open_.front();
      const std::size_t i = claim_locked(loop);
      lock.unlock();
      std::exception_ptr error = run_record(loop, i);
      lock.lock();
      settle_locked(loop, std::move(error));
      if (loop.running == 0 && loop.next == loop.n) cv_.notify_all();  // wakes its owner
    }
  }

  /// A design's quality (or error) is in: wake the threads waiting on it.
  void published() XBS_EXCLUDES(mu_) {
    {
      const common::MutexLock lock(mu_);  // a waiter's next check sees the entry
    }
    cv_.notify_all();
  }

  /// A job returned or threw.
  void job_done() XBS_EXCLUDES(mu_) {
    {
      const common::MutexLock lock(mu_);
      --jobs_left_;
    }
    cv_.notify_all();
  }

 private:
  std::size_t claim_locked(RecordLoop& loop) XBS_REQUIRES(mu_) {
    ++loop.running;
    if (loop.next + 1 == loop.n) std::erase(open_, &loop);  // its last record
    return loop.next++;
  }

  void settle_locked(RecordLoop& loop, std::exception_ptr error) XBS_REQUIRES(mu_) {
    --loop.running;
    if (loop.error == nullptr) loop.error = std::move(error);
  }

  common::Mutex mu_{common::LockRank::kRecordShare};
  common::CondVar cv_;
  std::vector<RecordLoop*> open_ XBS_GUARDED_BY(mu_);  ///< loops with records to claim
  std::size_t jobs_left_ XBS_GUARDED_BY(mu_);
};

/// A batch's memo from the pipeline configuration a candidate runs to its
/// quality. The entry is published in flight, before the quality exists, so a
/// job that asks for a design another job is evaluating finds it.
using DesignMemo = common::Memo<pantompkins::PipelineConfig, std::shared_future<double>>;

/// One job's evaluator in a batch: the factory's evaluator behind the batch's
/// DesignMemo. The first job to ask for a design evaluates it with no lock
/// held; every other job that asks runs records of the batch's open loops
/// until that quality is in, instead of scoring the design again.
/// evaluations() stays logical — every request counts, as in serial
/// design_generation — while cache_stats() is the work this job's own
/// evaluator did.
///
/// The key assumes that every evaluator one factory makes is interchangeable:
/// the same records and, for an AccuracyEvaluator, the same base design. The
/// engine's determinism already relies on that. Algorithm 1 lists only the
/// stages it approximates, so the key fixes the merged design too: equal keys
/// mean equal qualities.
class SharedDesignEvaluator final : public QualityEvaluator {
 public:
  SharedDesignEvaluator(std::unique_ptr<QualityEvaluator> inner, DesignMemo& memo,
                        RecordShare& share)
      : inner_(std::move(inner)), memo_(memo), share_(share) {}

  [[nodiscard]] std::string_view metric_name() const noexcept override {
    return inner_->metric_name();
  }
  [[nodiscard]] const StageCacheStats* cache_stats() const noexcept override {
    return inner_->cache_stats();
  }

 protected:
  [[nodiscard]] double evaluate_impl(const Design& d) override {
    std::promise<double> promise;
    DesignMemo::Ptr mine;
    const DesignMemo::Ptr entry = memo_.get(to_pipeline_config(d), [&] {
      mine = std::make_shared<const std::shared_future<double>>(promise.get_future().share());
      return mine;
    });
    if (entry == mine) {
      // The entry is always filled, so no waiter waits forever. An
      // evaluation that throws is stored, and the owner and every waiter
      // rethrow it from get().
      try {
        promise.set_value(inner_->evaluate(d));
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
      share_.published();
    } else {
      share_.help(entry.get());
    }
    return entry->get();
  }

 private:
  std::unique_ptr<QualityEvaluator> inner_;
  DesignMemo& memo_;
  RecordShare& share_;
};

}  // namespace

void for_each_record(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (t_share == nullptr || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  t_share->run(n, fn);
}

std::vector<Algorithm1Result> design_generation_batch(const std::vector<Algorithm1Job>& jobs,
                                                      const EvaluatorFactory& factory,
                                                      const StageEnergyModel& energy,
                                                      unsigned threads) {
  const WorkerPool pool(threads);
  DesignMemo memo;
  RecordShare share(jobs.size());
  // Tasks past the jobs keep a thread that ran out of jobs helping until the
  // last job is done; a 1-thread batch has none and shares nothing. The pool
  // hands out indices in order and runs every index it hands out, so once a
  // helper task starts, every job has started and will count itself done,
  // even after a job throws and the pool stops handing out tasks.
  const bool sharing = pool.size() > 1 && !jobs.empty();
  const std::size_t helpers = sharing ? pool.size() - 1 : 0;
  std::vector<Algorithm1Result> results(jobs.size());
  pool.parallel_for(jobs.size() + helpers, [&](std::size_t j) {
    const ShareScope scope(sharing ? &share : nullptr);
    if (j >= jobs.size()) {
      share.help(nullptr);
      return;
    }
    try {
      SharedDesignEvaluator evaluator(factory(), memo, share);
      results[j] = design_generation(jobs[j].spaces, jobs[j].lists, evaluator, energy,
                                     jobs[j].quality_constraint);
    } catch (...) {
      share.job_done();
      throw;
    }
    share.job_done();
  });
  return results;
}

}  // namespace xbs::explore
