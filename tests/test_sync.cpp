/// \file test_sync.cpp
/// \brief The annotated sync primitives and the Debug lock-rank checker.
///
/// The death tests are the checker's own regression suite: each one commits a
/// real hierarchy violation (a lock-order inversion, a same-rank nesting, a
/// wait on a non-innermost lock) and proves the process aborts with the
/// "lock-rank violation" diagnostic. In builds where the checker is compiled
/// out (Release, or -DXBS_LOCK_RANK_CHECKS=0) those tests are skipped — the
/// violations would silently succeed, which is exactly the gap the Debug legs
/// exist to close.
#include "xbs/common/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace xbs::common {
namespace {

TEST(Mutex, BasicExclusionAndRank) {
  Mutex mu{LockRank::kShard};
  EXPECT_EQ(mu.rank(), LockRank::kShard);
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        const MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

TEST(Mutex, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.try_lock());
  std::atomic<bool> second{true};
  // try_lock from another thread must fail while we hold the mutex
  // (same-thread retry would be UB on a std::mutex).
  std::thread probe([&] { second = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(second.load());
  mu.unlock();
}

TEST(MutexLock, RelockCycleWorks) {
  Mutex mu{LockRank::kShard};
  MutexLock lock(mu);
  EXPECT_TRUE(lock.owns());
  lock.unlock();
  EXPECT_FALSE(lock.owns());
  lock.lock();
  EXPECT_TRUE(lock.owns());
}

TEST(CondVar, WakesWaiter) {
  Mutex mu{LockRank::kShard};
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    const MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(lock);
  }
  waker.join();
  EXPECT_TRUE(ready);
}

TEST(LockRank, AscendingAcquisitionIsClean) {
  // The full hierarchy in order, all held at once — the discipline every
  // serving-stack thread follows.
  Mutex net{LockRank::kNetConn};
  Mutex shard{LockRank::kShard};
  Mutex cache{LockRank::kTableCache};
  const MutexLock l1(net);
  const MutexLock l2(shard);
  const MutexLock l3(cache);
#if XBS_LOCK_RANK_CHECKS
  EXPECT_EQ(detail::held_rank_count(), 3);
#endif
}

TEST(LockRank, OutOfOrderReleaseIsLegal) {
  // Hand-over-hand and similar patterns release outer locks first; only
  // *acquisition* order is constrained.
  Mutex shard{LockRank::kShard};
  Mutex cache{LockRank::kTableCache};
  shard.lock();
  cache.lock();
  shard.unlock();  // outer released while inner still held
  cache.unlock();
#if XBS_LOCK_RANK_CHECKS
  EXPECT_EQ(detail::held_rank_count(), 0);
#endif
}

TEST(LockRank, UnrankedLocksAreExempt) {
  // Unranked mutexes (test/tool leaf locks) may interleave with ranked ones
  // in any order without tripping the checker.
  Mutex cache{LockRank::kTableCache};
  Mutex plain;  // kUnranked
  const MutexLock l1(cache);
  const MutexLock l2(plain);
#if XBS_LOCK_RANK_CHECKS
  EXPECT_EQ(detail::held_rank_count(), 1);  // unranked locks are never pushed
#endif
}

#if XBS_LOCK_RANK_CHECKS

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InversionShardUnderTableCacheAborts) {
  // The seeded lock-order inversion from the issue: a thread holding a
  // table-cache mutex (rank 40) tries to take a shard mutex (rank 20).
  // Without the rank checker this runs to completion silently — the deadlock
  // only materializes when another thread locks in the correct order at the
  // same time. With the checker it dies deterministically, single-threaded.
  Mutex cache{LockRank::kTableCache};
  Mutex shard{LockRank::kShard};
  EXPECT_DEATH(
      {
        const MutexLock outer(cache);
        const MutexLock inner(shard);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  // Two locks of equal rank must never be held together (e.g. two shard
  // locks — the hierarchy has no defined order between them).
  Mutex a{LockRank::kShard};
  Mutex b{LockRank::kShard};
  EXPECT_DEATH(
      {
        const MutexLock la(a);
        const MutexLock lb(b);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, TryLockSkipsOrderButArmsStack) {
  // try_lock itself never deadlocks, so an out-of-order try_lock is legal —
  // but the lock it took joins the held stack, so a subsequent *blocking*
  // out-of-order acquisition still dies.
  Mutex cache{LockRank::kTableCache};
  Mutex shard{LockRank::kShard};
  EXPECT_DEATH(
      {
        const MutexLock outer(cache);
        if (shard.try_lock()) {  // legal: cannot block
          Mutex net{LockRank::kNetConn};
          net.lock();  // illegal: blocking descent below held rank 20
        }
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, WaitOnOuterLockAborts) {
  // A condition wait releases exactly one mutex; sleeping while an inner
  // lock stays held starves every other thread that needs it.
  Mutex shard{LockRank::kShard};
  Mutex cache{LockRank::kTableCache};
  CondVar cv;
  EXPECT_DEATH(
      {
        MutexLock outer(shard);
        const MutexLock inner(cache);
        cv.wait(outer);  // shard is not the innermost held lock
      },
      "lock-rank violation");
}

#else  // !XBS_LOCK_RANK_CHECKS

TEST(LockRankDeathTest, CheckerCompiledOut) {
  GTEST_SKIP() << "lock-rank checks are compiled out (XBS_LOCK_RANK_CHECKS=0; "
                  "Release build) — death tests run in the Debug CI legs";
}

#endif  // XBS_LOCK_RANK_CHECKS

}  // namespace
}  // namespace xbs::common
