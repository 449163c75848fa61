// BufferRing: LIFO recycling up to its capacity, and shrinking the bound.
#include <gtest/gtest.h>

#include <vector>

#include "xbs/common/ring.hpp"
#include "xbs/common/types.hpp"

namespace xbs {
namespace {

TEST(BufferRing, RecyclesLifoUpToCapacity) {
  BufferRing<std::vector<i32>> ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.empty());

  std::vector<i32> buf;
  EXPECT_FALSE(ring.take(buf));  // empty: caller allocates

  EXPECT_TRUE(ring.put(std::vector<i32>{1}));
  EXPECT_TRUE(ring.put(std::vector<i32>{2, 2}));
  EXPECT_FALSE(ring.put(std::vector<i32>{3, 3, 3}));  // at capacity: drop
  EXPECT_EQ(ring.size(), 2u);

  // LIFO: the most recently recycled (hottest) buffer comes back first.
  EXPECT_TRUE(ring.take(buf));
  EXPECT_EQ(buf, (std::vector<i32>{2, 2}));
  EXPECT_TRUE(ring.take(buf));
  EXPECT_EQ(buf, (std::vector<i32>{1}));
  EXPECT_FALSE(ring.take(buf));
}

TEST(BufferRing, ShrinkingCapacityReleasesTheExcess) {
  BufferRing<std::vector<i32>> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.put(std::vector<i32>(8, i)));
  ring.set_capacity(1);
  EXPECT_EQ(ring.size(), 1u);
  std::vector<i32> buf;
  EXPECT_TRUE(ring.take(buf));
  EXPECT_EQ(buf, std::vector<i32>(8, 0));  // the survivors are the oldest
  EXPECT_FALSE(ring.take(buf));

  // A zero-capacity ring recycles nothing (every put is a drop).
  ring.set_capacity(0);
  EXPECT_FALSE(ring.put(std::vector<i32>{1}));
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace xbs
