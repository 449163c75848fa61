/// \file sync.hpp
/// \brief Annotated synchronization primitives: clang thread-safety-checked
/// `Mutex`/`MutexLock`/`CondVar` wrappers plus a Debug-build lock-rank
/// deadlock detector.
///
/// Every lock in the serving stack goes through these wrappers so the locking
/// discipline is enforced twice:
///
///   1. **Statically** — under clang, the `XBS_GUARDED_BY` / `XBS_REQUIRES` /
///      `XBS_ACQUIRE` / `XBS_RELEASE` annotations make `-Wthread-safety`
///      prove at compile time that guarded members are only touched with
///      their mutex held and that `REQUIRES`-bearing helpers are only called
///      under the right lock. On non-clang compilers the macros expand to
///      nothing and `Mutex` is a plain `std::mutex` wrapper.
///
///   2. **Dynamically** — in Debug builds (`XBS_LOCK_RANK_CHECKS`, default on
///      when `NDEBUG` is not defined) every ranked `Mutex` acquisition is
///      checked against a per-thread held-lock stack: acquiring a lock whose
///      rank is not strictly greater than the innermost held rank aborts
///      with a diagnostic. Strict ascent over a global hierarchy makes lock
///      cycles — and therefore lock-order deadlocks — impossible by
///      construction.
///
/// The lock hierarchy (see docs/concurrency.md for the full discipline):
///
///   | rank | level        | locks at this level                              |
///   |-----:|--------------|--------------------------------------------------|
///   |   10 | net-conn     | `net::NetServer` completion-notify list lock     |
///   |   20 | shard        | `stream::StreamServer` shard locks               |
///   |   40 | table-cache  | every common::Memo (memo.hpp): the arith table
///   |      |              | store's models and tables, the energy-model
///   |      |              | synthesis memo, an Algorithm 1 batch's design
///   |      |              | memo; kernel-ISA + CRC32C dispatch               |
///   |   50 | record-share | an Algorithm 1 batch's record share (a leaf)     |
///
/// State that one thread owns takes no lock at all: the `NetServer` token
/// registry lives on the epoll loop, and the explore `WorkerPool` is a
/// lock-free fork-join.
///
/// A thread may acquire a lock only if its rank is strictly greater than
/// every rank it already holds; same-rank nesting is a violation too (locks
/// of equal rank must never be held together). Unranked mutexes
/// (`LockRank::kUnranked`, the default) are exempt from ordering — use them
/// for leaf locks in tests and tools, never in the serving stack.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// --------------------------------------------------------------------------
// Clang thread-safety annotation macros. Empty on other compilers.
// --------------------------------------------------------------------------
#if defined(__clang__)
#define XBS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define XBS_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define XBS_CAPABILITY(x) XBS_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose lifetime acquires/releases a capability.
#define XBS_SCOPED_CAPABILITY XBS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the named mutex held.
#define XBS_GUARDED_BY(x) XBS_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named mutex.
#define XBS_PT_GUARDED_BY(x) XBS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function that must be called with the named mutex(es) already held.
#define XBS_REQUIRES(...) XBS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the named mutex(es) (held on return, not on entry).
#define XBS_ACQUIRE(...) XBS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases the named mutex(es).
#define XBS_RELEASE(...) XBS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that acquires the mutex only when it returns the given value.
#define XBS_TRY_ACQUIRE(...) XBS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function that must NOT be called with the named mutex(es) held (it
/// acquires them itself; holding them would self-deadlock).
#define XBS_EXCLUDES(...) XBS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function that dynamically asserts the capability is held (e.g. via the
/// Debug held-lock stack) — the analysis trusts it from there on.
#define XBS_ASSERT_CAPABILITY(x) XBS_THREAD_ANNOTATION(assert_capability(x))
/// Function returning a reference to the mutex guarding its result.
#define XBS_RETURN_CAPABILITY(x) XBS_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch for locking patterns beyond the static analysis (documented
/// at every use site; the Debug rank checker still covers them at runtime).
#define XBS_NO_THREAD_SAFETY_ANALYSIS XBS_THREAD_ANNOTATION(no_thread_safety_analysis)

// --------------------------------------------------------------------------
// Debug lock-rank checking. On by default whenever assertions are on; can be
// forced either way with -DXBS_LOCK_RANK_CHECKS=0/1.
// --------------------------------------------------------------------------
#ifndef XBS_LOCK_RANK_CHECKS
#ifdef NDEBUG
#define XBS_LOCK_RANK_CHECKS 0
#else
#define XBS_LOCK_RANK_CHECKS 1
#endif
#endif

namespace xbs::common {

/// The global lock hierarchy (see the file comment). Values are spaced so a
/// future level can slot in between without renumbering.
enum class LockRank : int {
  kUnranked = -1,    ///< exempt from ordering (leaf locks in tests/tools only)
  kNetConn = 10,     ///< net front door: the completion-notify list
  kShard = 20,       ///< stream shard locks
  kTableCache = 40,  ///< common::Memo and the ISA/CRC dispatch state
  kRecordShare = 50, ///< an Algorithm 1 batch's record share (explore/parallel.cpp)
};

/// Human-readable level name for diagnostics ("shard", "table-cache", ...).
[[nodiscard]] const char* to_string(LockRank r) noexcept;

namespace detail {
// Out-of-line Debug bookkeeping (sync.cpp): a per-thread stack of held
// ranked locks. `rank_acquire` aborts on any non-ascending acquisition,
// `rank_wait` aborts when a condition wait would release a lock that is not
// the innermost one held (sleeping while holding an outer lock is a latent
// deadlock). All are no-ops for unranked mutexes.
void rank_acquire(const void* mu, LockRank rank) noexcept;
void rank_try_acquired(const void* mu, LockRank rank) noexcept;
void rank_release(const void* mu, LockRank rank) noexcept;
void rank_wait(const void* mu, LockRank rank) noexcept;
void rank_assert_held(const void* mu, LockRank rank) noexcept;
/// Ranked locks the calling thread currently holds (test observability, and
/// the explore batch's Debug assert that a worker helps or sleeps holding
/// none).
[[nodiscard]] int held_rank_count() noexcept;
}  // namespace detail

/// A standard mutex carrying a clang capability and a static lock rank.
/// Release builds compile down to a bare `std::mutex`.
class XBS_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() noexcept = default;
  constexpr explicit Mutex(LockRank rank) noexcept : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() XBS_ACQUIRE() {
#if XBS_LOCK_RANK_CHECKS
    detail::rank_acquire(this, rank_);
#endif
    mu_.lock();
  }

  void unlock() XBS_RELEASE() {
    mu_.unlock();
#if XBS_LOCK_RANK_CHECKS
    detail::rank_release(this, rank_);
#endif
  }

  bool try_lock() XBS_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
#if XBS_LOCK_RANK_CHECKS
    // A successful try_lock cannot deadlock (it never blocks), so it skips
    // the order assert but still joins the held stack for later checks.
    if (ok) detail::rank_try_acquired(this, rank_);
#endif
    return ok;
  }

  /// Debug-assert the calling thread holds this mutex; tells the static
  /// analysis the capability is held from here on. Used at the top of
  /// `XBS_NO_THREAD_SAFETY_ANALYSIS` bodies to keep the runtime check.
  void assert_held() XBS_ASSERT_CAPABILITY(this) {
#if XBS_LOCK_RANK_CHECKS
    detail::rank_assert_held(this, rank_);
#endif
  }

  [[nodiscard]] LockRank rank() const noexcept { return rank_; }

  /// The wrapped native mutex — for CondVar only; locking it directly would
  /// bypass both the annotations and the rank checker.
  [[nodiscard]] std::mutex& native() noexcept { return mu_; }

 private:
  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
};

/// RAII scoped lock over `Mutex`, relockable mid-scope (the worker batch
/// pattern: unlock around the expensive work, relock to publish results).
class XBS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) XBS_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }

  ~MutexLock() XBS_RELEASE() {
    if (owns_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() XBS_ACQUIRE() {
    mu_->lock();
    owns_ = true;
  }

  void unlock() XBS_RELEASE() {
    mu_->unlock();
    owns_ = false;
  }

  [[nodiscard]] bool owns() const noexcept { return owns_; }
  [[nodiscard]] Mutex* mutex() const noexcept { return mu_; }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool owns_ = true;
};

/// Condition variable over `Mutex`. No predicate overloads on purpose: a
/// predicate lambda is a separate function to the static analysis, so its
/// guarded reads would need their own annotations — explicit
/// `while (!cond) cv.wait(lock);` loops keep every guarded read inside the
/// annotated caller. Waiting is only legal on the *innermost* held lock
/// (checked in Debug): a wait releases exactly one mutex, so sleeping while
/// holding an outer one is a latent deadlock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(MutexLock& lock) {
    Mutex& mu = pre_wait(lock);
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with `lock`
  }

  template <class Rep, class Period>
  std::cv_status wait_for(MutexLock& lock, const std::chrono::duration<Rep, Period>& d) {
    Mutex& mu = pre_wait(lock);
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_for(native, d);
    native.release();
    return st;
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(MutexLock& lock,
                            const std::chrono::time_point<Clock, Duration>& tp) {
    Mutex& mu = pre_wait(lock);
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_until(native, tp);
    native.release();
    return st;
  }

 private:
  static Mutex& pre_wait(MutexLock& lock) noexcept {
    Mutex& mu = *lock.mutex();
#if XBS_LOCK_RANK_CHECKS
    detail::rank_wait(&mu, mu.rank());
#endif
    return mu;
  }

  std::condition_variable cv_;
};

}  // namespace xbs::common
