/// \file wired_add.hpp
/// \brief The AMA4/AMA5 wired-add loop, written once. Each kernel tier's
/// translation unit (kernel_isa_*.cpp, and only those) includes it, so the
/// compiler vectorizes the same source under that tier's flags: SSE2 for
/// baseline, ymm under -mavx2, zmm under -mavx512f.
///
/// Everything here has internal linkage, and that is load-bearing. With
/// external linkage each tier TU would emit the same weak symbols, the
/// linker would keep one copy (perhaps the AVX-512 one) for every tier, and
/// a CPU without AVX-512 would fault in the "baseline" tier. CI fails on any
/// weak xbs::arith symbol in the tier objects. Put here only what every
/// tier uses: an unused function in an unnamed namespace is a warning.
#pragma once

#include "xbs/arith/isa.hpp"
#include "xbs/common/bitops.hpp"

namespace xbs::arith::detail {
namespace {

/// out[i] = the AMA5 (kSumIsB: low sum = B) or AMA4 (low sum = NOT A) add of
/// a[i] and b[i]: `w`-bit operands, `k` approximate LSBs whose carry out is
/// A's bit k-1 (Cout = A), then one native add of the high bits. Bit for bit
/// ripple_add's closed form for these kinds. `out` may alias `a` or `b`
/// element-wise. The `(x ^ sbit) - sbit` sign folds wrap u64 by design (see
/// sign_extend in bitops.hpp), so the loop is exempt from the
/// -fsanitize=integer checks.
template <bool kSumIsB>
XBS_NO_SANITIZE_INTEGER void wired_add_loop(const i64* a, const i64* b, i64* out, std::size_t n,
                                            int w, int k) noexcept {
  const u64 wmask = low_mask(w);
  const u64 sbit = u64{1} << (w - 1);
  if (k >= w) {
    for (std::size_t i = 0; i < n; ++i) {
      const u64 ua = static_cast<u64>(a[i]) & wmask;
      const u64 ub = static_cast<u64>(b[i]) & wmask;
      const u64 low = (kSumIsB ? ub : ~ua) & wmask;
      out[i] = static_cast<i64>((low ^ sbit) - sbit);
    }
    return;
  }
  const u64 kmask = low_mask(k);
  const u64 himask = low_mask(w - k);
  // k = 0 has no approximate region and so no carry out of it (carry-in 0).
  // The loop-invariant shift and mask keep that case out of the loop body.
  const int cshift = k > 0 ? k - 1 : 0;
  const u64 cmask = k > 0 ? 1u : 0u;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 ua = static_cast<u64>(a[i]) & wmask;
    const u64 ub = static_cast<u64>(b[i]) & wmask;
    const u64 low = (kSumIsB ? ub : ~ua) & kmask;
    const u64 carry = (ua >> cshift) & cmask;
    const u64 hi = ((ua >> k) + (ub >> k) + carry) & himask;
    const u64 r = (hi << k) | low;
    out[i] = static_cast<i64>((r ^ sbit) - sbit);
  }
}

/// KernelOps::wired_add_n of the including tier.
void wired_add_n(const i64* a, const i64* b, i64* out, std::size_t n, const WiredAddParams& p) {
  if (p.sum_is_b) {
    wired_add_loop<true>(a, b, out, n, p.width, p.approx_bits);
  } else {
    wired_add_loop<false>(a, b, out, n, p.width, p.approx_bits);
  }
}

}  // namespace
}  // namespace xbs::arith::detail
