/// \file test_memo.cpp
/// \brief common::Memo, the lookup-or-build cache behind the arith table
/// store and the energy-model stage costs: one published value per key under
/// races, nothing published by a throwing build, and builds that run with no
/// lock held.
#include "xbs/common/memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace xbs::common {
namespace {

using IntMemo = Memo<int, int>;

TEST(Memo, WarmGetReturnsThePublishedValueWithoutBuilding) {
  IntMemo memo;
  int calls = 0;
  const auto build = [&] {
    ++calls;
    return std::make_shared<int>(10 * calls);
  };
  const IntMemo::Ptr a = memo.get(1, build);
  const IntMemo::Ptr b = memo.get(2, build);
  EXPECT_EQ(*a, 10);
  EXPECT_EQ(*b, 20);
  EXPECT_EQ(memo.get(1, build), a);
  EXPECT_EQ(memo.get(2, build), b);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(memo.builds(), 2u);
}

TEST(Memo, RacersOnOneColdKeyShareTheFirstPublishedValue) {
  IntMemo memo;
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::atomic<int> built{0};
  std::vector<IntMemo::Ptr> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = memo.get(7, [&] {
        // A slow build keeps the key cold while the other threads arrive.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_shared<int>(100 + built.fetch_add(1));
      });
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  ASSERT_NE(got[0], nullptr);
  for (const IntMemo::Ptr& p : got) EXPECT_EQ(p, got[0]);
  EXPECT_GE(built.load(), 1);
  EXPECT_EQ(memo.builds(), 1u);
}

TEST(Memo, ThrowingBuildPublishesNothingAndTheNextGetBuilds) {
  IntMemo memo;
  EXPECT_THROW((void)memo.get(3, []() -> IntMemo::Ptr { throw std::runtime_error("build"); }),
               std::runtime_error);
  EXPECT_EQ(memo.builds(), 0u);
  const IntMemo::Ptr v = memo.get(3, [] { return std::make_shared<int>(33); });
  EXPECT_EQ(*v, 33);
  EXPECT_EQ(memo.builds(), 1u);
}

TEST(Memo, BuildMayGetFromAnotherMemoOfTheSameRank) {
  // Both memos lock at rank table-cache, so a build run under its memo's
  // lock would nest two equal ranks: the Debug checker aborts on that.
  IntMemo outer;
  IntMemo inner;
  const IntMemo::Ptr v = outer.get(1, [&] {
    EXPECT_EQ(detail::held_rank_count(), 0);
    const IntMemo::Ptr dep = inner.get(1, [] {
      EXPECT_EQ(detail::held_rank_count(), 0);
      return std::make_shared<int>(4);
    });
    return std::make_shared<int>(*dep + 1);
  });
  EXPECT_EQ(*v, 5);
  EXPECT_EQ(outer.builds(), 1u);
  EXPECT_EQ(inner.builds(), 1u);
}

}  // namespace
}  // namespace xbs::common
