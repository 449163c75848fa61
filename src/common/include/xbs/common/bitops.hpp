/// \file bitops.hpp
/// \brief Bit-manipulation helpers for the bit-accurate arithmetic simulators.
#pragma once

#include <cassert>

#include "xbs/common/types.hpp"

namespace xbs {

/// Extract bit \p i (0 = LSB) of \p v.
[[nodiscard]] constexpr bool bit_of(u64 v, int i) noexcept {
  return ((v >> i) & 1u) != 0;
}

/// Set bit \p i of \p v to \p b and return the result.
[[nodiscard]] constexpr u64 with_bit(u64 v, int i, bool b) noexcept {
  const u64 m = u64{1} << i;
  return b ? (v | m) : (v & ~m);
}

/// Mask keeping the low \p n bits (n in [0, 64]).
[[nodiscard]] constexpr u64 low_mask(int n) noexcept {
  return n >= 64 ? ~u64{0} : ((u64{1} << n) - 1);
}

/// Sign-extend the low \p bits bits of \p v into a signed 64-bit value.
/// `(x ^ m) - m` underflows u64 whenever the sign bit is set — that wrap IS
/// the two's-complement fold, so the -fsanitize=integer checks are off here.
XBS_NO_SANITIZE_INTEGER [[nodiscard]] constexpr i64 sign_extend(u64 v, int bits) noexcept {
  assert(bits > 0 && bits <= 64);
  if (bits == 64) return static_cast<i64>(v);
  const u64 m = u64{1} << (bits - 1);
  const u64 x = v & low_mask(bits);
  return static_cast<i64>((x ^ m) - m);
}

/// Truncate a signed value to its low \p bits bits (two's complement wrap).
[[nodiscard]] constexpr u64 to_unsigned_bits(i64 v, int bits) noexcept {
  return static_cast<u64>(v) & low_mask(bits);
}

}  // namespace xbs
