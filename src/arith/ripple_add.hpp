/// \file ripple_add.hpp
/// \brief Internal: the closed form of the approximate ripple-carry adder,
/// shared by RippleCarryAdder and RecursiveMultiplier's partial-product
/// adds. Not installed: the public surface is xbs/arith/rca.hpp.
#pragma once

#include "xbs/arith/rca.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith::detail {

/// Carry out of every bit position of a + b + cin, given its sum s (mod
/// 2^64): Cout = majority(A, B, Cin) with Cin = S ^ A ^ B, i.e. 1 where both
/// operands are 1 and the inverted sum bit where exactly one is.
[[nodiscard]] constexpr u64 carries_out(u64 a, u64 b, u64 s) noexcept {
  return (a & b) | ((a | b) & ~s);
}

/// A `width`-bit ripple-carry add (width in [1, 64]) whose low `approx` full
/// adders (approx in [0, width]) are `kind` and the rest accurate, in O(1):
/// bit-for-bit the chain of fulladder.hpp truth tables (tests/test_rca.cpp
/// checks it against that chain).
///
/// Approximate low region of r = approx bits, operands a_l, b_l:
///  - Accurate, AMA1, AMA2 keep exact carries, those of s = a_l + b_l + cin.
///    Accurate sums are s; AMA1's are s except where A & !Cin, which take B;
///    AMA2's are the inverted carries out.
///  - AMA3's carries (Cout = A | B & Cin) are those of (a_l | b_l) + a_l + cin:
///    both ports 1 where A generates, B alone propagates. Sum = !Cout.
///  - AMA4 (Sum = !A) and AMA5 (Sum = B) pass Cout = A: no chain at all.
/// The region's carry out enters the accurate high region as one native add.
/// At width 64 (the 32x32 multiplier's top adds) the 64-bit sums wrap by
/// design: the carries come from the majority form, never from bit 64.
XBS_NO_SANITIZE_INTEGER [[nodiscard]] inline AddResult ripple_add(
    AdderKind kind, int width, int approx, u64 a, u64 b, bool cin) noexcept {
  const u64 wmask = low_mask(width);
  a &= wmask;
  b &= wmask;
  u64 sum = 0;
  bool carry = cin;
  if (approx > 0) {
    const u64 lmask = low_mask(approx);
    const u64 al = a & lmask;
    const u64 bl = b & lmask;
    const u64 c0 = static_cast<u64>(cin);
    u64 co = 0;  // carry out of each approximate position
    switch (kind) {
      case AdderKind::Accurate: {
        const u64 s = al + bl + c0;
        sum = s;
        co = carries_out(al, bl, s);
        break;
      }
      case AdderKind::Approx1: {
        const u64 s = al + bl + c0;
        const u64 take_b = al & ~(s ^ al ^ bl);
        sum = (s & ~take_b) | (bl & take_b);
        co = carries_out(al, bl, s);
        break;
      }
      case AdderKind::Approx2:
        co = carries_out(al, bl, al + bl + c0);
        sum = ~co;
        break;
      case AdderKind::Approx3: {
        const u64 x = al | bl;
        co = carries_out(x, al, x + al + c0);
        sum = ~co;
        break;
      }
      case AdderKind::Approx4:
        sum = ~al;
        co = al;
        break;
      case AdderKind::Approx5:
        sum = bl;
        co = al;
        break;
    }
    sum &= lmask;
    carry = bit_of(co, approx - 1);
  }
  const int hi = width - approx;
  if (hi > 0) {
    const u64 ah = a >> approx;
    const u64 bh = b >> approx;
    const u64 s = ah + bh + static_cast<u64>(carry);
    sum |= (s & low_mask(hi)) << approx;
    carry = bit_of(carries_out(ah, bh, s), hi - 1);
  }
  return AddResult{sum, carry};
}

}  // namespace xbs::arith::detail
