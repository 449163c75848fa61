// Unit tests for fixed-point helpers.
#include <gtest/gtest.h>

#include <limits>

#include "xbs/common/fixed.hpp"

namespace xbs {
namespace {

TEST(Saturate, WithinRangePassesThrough) {
  EXPECT_EQ(saturate_to_bits(1234, 16), 1234);
  EXPECT_EQ(saturate_to_bits(-1234, 16), -1234);
  EXPECT_EQ(saturate_to_bits(32767, 16), 32767);
  EXPECT_EQ(saturate_to_bits(-32768, 16), -32768);
}

TEST(Saturate, ClampsOutOfRange) {
  EXPECT_EQ(saturate_to_bits(32768, 16), 32767);
  EXPECT_EQ(saturate_to_bits(-32769, 16), -32768);
  EXPECT_EQ(saturate_to_bits(1e15, 16), 32767);
}

TEST(Saturate, I32Limits) {
  EXPECT_EQ(saturate_i32(i64{std::numeric_limits<i32>::max()} + 5),
            std::numeric_limits<i32>::max());
  EXPECT_EQ(saturate_i32(i64{std::numeric_limits<i32>::min()} - 5),
            std::numeric_limits<i32>::min());
  EXPECT_EQ(saturate_i32(12345), 12345);
}

}  // namespace
}  // namespace xbs
