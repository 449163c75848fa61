/// \file fixed.hpp
/// \brief Saturating conversions of the fixed-point datapath.
///
/// The Pan-Tompkins datapath in the paper is an integer/fixed-point ASIC
/// pipeline fed by a 16-bit ADC. These helpers centralize its saturation so
/// every stage states its numeric contract explicitly.
#pragma once

#include <algorithm>
#include <cassert>
#include <limits>

#include "xbs/common/types.hpp"

namespace xbs {

/// Saturate a 64-bit value into the signed range of \p bits bits.
[[nodiscard]] constexpr i64 saturate_to_bits(i64 v, int bits) noexcept {
  assert(bits >= 2 && bits <= 64);
  if (bits == 64) return v;
  const i64 hi = (i64{1} << (bits - 1)) - 1;
  const i64 lo = -(i64{1} << (bits - 1));
  return std::clamp(v, lo, hi);
}

/// Saturate to 32-bit.
[[nodiscard]] constexpr i32 saturate_i32(i64 v) noexcept {
  return static_cast<i32>(
      std::clamp<i64>(v, std::numeric_limits<i32>::min(), std::numeric_limits<i32>::max()));
}

}  // namespace xbs
