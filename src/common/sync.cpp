#include "xbs/common/sync.hpp"

#include <cstdio>
#include <cstdlib>

namespace xbs::common {

const char* to_string(LockRank r) noexcept {
  switch (r) {
    case LockRank::kUnranked:
      return "unranked";
    case LockRank::kNetConn:
      return "net-conn";
    case LockRank::kShard:
      return "shard";
    case LockRank::kTableCache:
      return "table-cache";
    case LockRank::kRecordShare:
      return "record-share";
  }
  return "?";
}

namespace detail {
namespace {

// Per-thread stack of held *ranked* locks. Unranked mutexes never enter the
// stack, so they cost nothing here and are exempt from every check. The
// stack is tiny by design: holding more than a handful of ranked locks at
// once would itself be a hierarchy smell.
constexpr int kMaxHeld = 16;

struct HeldLock {
  const void* mu;
  LockRank rank;
};

thread_local HeldLock t_held[kMaxHeld];
thread_local int t_n_held = 0;

[[noreturn]] void die(const char* what, LockRank rank, LockRank held) noexcept {
  std::fprintf(stderr,
               "xbs sync: lock-rank violation: %s: lock of rank %d (%s) while the innermost "
               "held lock has rank %d (%s); acquisitions must strictly ascend the hierarchy "
               "net-conn(10) < shard(20) < table-cache(40)\n",
               what, static_cast<int>(rank), to_string(rank), static_cast<int>(held),
               to_string(held));
  std::abort();
}

[[noreturn]] void die_simple(const char* what, LockRank rank) noexcept {
  std::fprintf(stderr, "xbs sync: lock-rank violation: %s (rank %d, %s)\n", what,
               static_cast<int>(rank), to_string(rank));
  std::abort();
}

void push(const void* mu, LockRank rank) noexcept {
  if (t_n_held == kMaxHeld) die_simple("held-lock stack overflow", rank);
  t_held[t_n_held++] = HeldLock{mu, rank};
}

}  // namespace

void rank_acquire(const void* mu, LockRank rank) noexcept {
  if (rank == LockRank::kUnranked) return;
  if (t_n_held > 0) {
    // Pushes are ascending-only, so the top of the stack is the maximum and
    // the innermost held rank even after out-of-order releases.
    const HeldLock& top = t_held[t_n_held - 1];
    if (rank <= top.rank) die("acquiring", rank, top.rank);
  }
  push(mu, rank);
}

void rank_try_acquired(const void* mu, LockRank rank) noexcept {
  if (rank == LockRank::kUnranked) return;
  // try_lock never blocks, so it cannot complete a deadlock cycle and is
  // allowed out of order; the lock still joins the stack so that later
  // blocking acquisitions are checked against it.
  push(mu, rank);
}

void rank_release(const void* mu, LockRank rank) noexcept {
  if (rank == LockRank::kUnranked) return;
  for (int i = t_n_held - 1; i >= 0; --i) {
    if (t_held[i].mu != mu) continue;
    for (int j = i; j + 1 < t_n_held; ++j) t_held[j] = t_held[j + 1];
    --t_n_held;
    return;
  }
  die_simple("releasing a lock this thread does not hold", rank);
}

void rank_wait(const void* mu, LockRank rank) noexcept {
  if (rank == LockRank::kUnranked) return;
  // A condition wait releases exactly one mutex; blocking while a lock
  // acquired *after* it stays held would sleep inside a critical section.
  if (t_n_held == 0 || t_held[t_n_held - 1].mu != mu) {
    die_simple("condition wait on a lock that is not the innermost one held", rank);
  }
}

void rank_assert_held(const void* mu, LockRank rank) noexcept {
  if (rank == LockRank::kUnranked) return;
  for (int i = t_n_held - 1; i >= 0; --i) {
    if (t_held[i].mu == mu) return;
  }
  die_simple("assert_held on a lock this thread does not hold", rank);
}

int held_rank_count() noexcept { return t_n_held; }

}  // namespace detail
}  // namespace xbs::common
