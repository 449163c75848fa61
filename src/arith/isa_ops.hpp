/// \file isa_ops.hpp
/// \brief Internal seam between the dispatch (isa.cpp) and the per-ISA
/// kernel-loop translation units. Not installed: the public surface is
/// xbs/arith/isa.hpp.
#pragma once

#include "xbs/arith/isa.hpp"
#include "xbs/common/bitops.hpp"

namespace xbs::arith::detail {

/// Scalar reference element of the wired-add closed form — the single
/// source of truth every tier's tail loop (and the baseline loop) reduces
/// to. Mirrors ApproxKernel's decoded AMA4/AMA5 semantics exactly.
/// The `(x ^ sbit) - sbit` sign folds below wrap u64 by design (see
/// sign_extend in bitops.hpp) — exempt from the -fsanitize=integer checks.
XBS_NO_SANITIZE_INTEGER [[nodiscard]] inline i64 wired_add_one(
    i64 a, i64 b, int w, int k, bool sum_is_b) noexcept {
  const u64 wmask = low_mask(w);
  const u64 ua = static_cast<u64>(a) & wmask;
  const u64 ub = static_cast<u64>(b) & wmask;
  const u64 sbit = u64{1} << (w - 1);
  if (k >= w) {
    const u64 low = (sum_is_b ? ub : ~ua) & wmask;
    return static_cast<i64>((low ^ sbit) - sbit);
  }
  const u64 low = (sum_is_b ? ub : ~ua) & low_mask(k);
  // k = 0: no approximate region, so no carry out of it (carry-in 0).
  const u64 carry = k > 0 ? (ua >> (k - 1)) & 1u : 0u;
  const u64 hi = ((ua >> k) + (ub >> k) + carry) & low_mask(w - k);
  const u64 r = (hi << k) | low;
  return static_cast<i64>((r ^ sbit) - sbit);
}

/// Portable scalar tier (always compiled; also the tail reference).
[[nodiscard]] const KernelOps& baseline_ops() noexcept;

/// Vector tiers, defined in kernel_isa_avx2.cpp / kernel_isa_avx512.cpp —
/// those TUs (and only those) are compiled with -mavx2 / -mavx512f, and are
/// only added to the build when the compiler targets x86 and accepts the
/// flag (XBS_HAVE_AVX2 / XBS_HAVE_AVX512).
#if defined(XBS_HAVE_AVX2)
[[nodiscard]] const KernelOps& avx2_ops() noexcept;
#endif
#if defined(XBS_HAVE_AVX512)
[[nodiscard]] const KernelOps& avx512_ops() noexcept;
#endif

}  // namespace xbs::arith::detail
