/// \file kernel_isa_baseline.cpp
/// \brief Portable scalar tier of the kernel inner loops.
///
/// These are the loops ApproxKernel ran before the dispatch seam existed,
/// ported verbatim: the path booleans are template parameters so the inner
/// bodies stay branch-free and auto-vectorizable, exactly as before. Every
/// other tier must be bit-identical to this one.
#include "isa_ops.hpp"

namespace xbs::arith::detail {
namespace {

#if defined(_MSC_VER)
#define XBS_RESTRICT __restrict
#else
#define XBS_RESTRICT __restrict__
#endif

void gather_lut_n_baseline(const i64* table, u64 mask, const i64* x, i64* out,
                           std::size_t n) {
  // No restrict on x/out: the in-place SQR walk aliases them fully, and
  // out[i] is written strictly after x[i] is read.
  const i64* XBS_RESTRICT t = table;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = t[static_cast<u64>(x[i]) & mask];
  }
}

// The `(x ^ sbit) - sbit` sign folds in both loop bodies wrap u64 by design
// (two's-complement sign extension, see bitops.hpp) — exempt from the
// -fsanitize=integer checks.
template <bool kSumIsB, bool kNegateB>
XBS_NO_SANITIZE_INTEGER void wired_add_loop(const i64* a, const i64* b, i64* out, std::size_t n,
                                            int w, int k) noexcept {
  const u64 wmask = low_mask(w);
  const u64 sbit = u64{1} << (w - 1);
  if (k >= w) {
    for (std::size_t i = 0; i < n; ++i) {
      const u64 ua = static_cast<u64>(a[i]) & wmask;
      u64 ub = static_cast<u64>(b[i]) & wmask;
      if (kNegateB) ub = ~ub & wmask;
      const u64 low = (kSumIsB ? ub : ~ua) & wmask;
      out[i] = static_cast<i64>((low ^ sbit) - sbit);
    }
    return;
  }
  const u64 kmask = low_mask(k);
  const u64 himask = low_mask(w - k);
  // k = 0 has no approximate region and so no carry out of it: carry-in 0,
  // what the vector tiers' out-of-range shift count yields.
  const int cshift = k > 0 ? k - 1 : 0;
  const u64 cmask = k > 0 ? 1u : 0u;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 ua = static_cast<u64>(a[i]) & wmask;
    u64 ub = static_cast<u64>(b[i]) & wmask;
    if (kNegateB) ub = ~ub & wmask;
    const u64 low = (kSumIsB ? ub : ~ua) & kmask;
    const u64 carry = (ua >> cshift) & cmask;
    const u64 hi = ((ua >> k) + (ub >> k) + carry) & himask;
    const u64 r = (hi << k) | low;
    out[i] = static_cast<i64>((r ^ sbit) - sbit);
  }
}

void wired_add_n_baseline(const i64* a, const i64* b, i64* out, std::size_t n,
                          const WiredAddParams& p) {
  if (p.sum_is_b) {
    if (p.negate_b) {
      wired_add_loop<true, true>(a, b, out, n, p.width, p.approx_bits);
    } else {
      wired_add_loop<true, false>(a, b, out, n, p.width, p.approx_bits);
    }
  } else {
    if (p.negate_b) {
      wired_add_loop<false, true>(a, b, out, n, p.width, p.approx_bits);
    } else {
      wired_add_loop<false, false>(a, b, out, n, p.width, p.approx_bits);
    }
  }
}

template <bool kSumIsB>
XBS_NO_SANITIZE_INTEGER void wired_mac_loop(const i64* XBS_RESTRICT table, u64 mask,
                                            const i64* XBS_RESTRICT x, i64* XBS_RESTRICT acc,
                                            std::size_t n, int w, int k) noexcept {
  const u64 wmask = low_mask(w);
  const u64 sbit = u64{1} << (w - 1);
  if (k >= w) {
    for (std::size_t i = 0; i < n; ++i) {
      const u64 ua = static_cast<u64>(acc[i]) & wmask;
      const u64 ub = static_cast<u64>(table[static_cast<u64>(x[i]) & mask]) & wmask;
      const u64 low = (kSumIsB ? ub : ~ua) & wmask;
      acc[i] = static_cast<i64>((low ^ sbit) - sbit);
    }
    return;
  }
  const u64 kmask = low_mask(k);
  const u64 himask = low_mask(w - k);
  const int cshift = k > 0 ? k - 1 : 0;  // k = 0: carry-in 0, as in wired_add_loop
  const u64 cmask = k > 0 ? 1u : 0u;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 ua = static_cast<u64>(acc[i]) & wmask;
    const u64 ub = static_cast<u64>(table[static_cast<u64>(x[i]) & mask]) & wmask;
    const u64 low = (kSumIsB ? ub : ~ua) & kmask;
    const u64 carry = (ua >> cshift) & cmask;
    const u64 hi = ((ua >> k) + (ub >> k) + carry) & himask;
    const u64 r = (hi << k) | low;
    acc[i] = static_cast<i64>((r ^ sbit) - sbit);
  }
}

void wired_mac_n_baseline(const i64* table, u64 mask, const i64* x, i64* acc,
                          std::size_t n, const WiredAddParams& p) {
  if (p.sum_is_b) {
    wired_mac_loop<true>(table, mask, x, acc, n, p.width, p.approx_bits);
  } else {
    wired_mac_loop<false>(table, mask, x, acc, n, p.width, p.approx_bits);
  }
}

}  // namespace

const KernelOps& baseline_ops() noexcept {
  static constexpr KernelOps ops{&gather_lut_n_baseline, &wired_add_n_baseline,
                                 &wired_mac_n_baseline};
  return ops;
}

}  // namespace xbs::arith::detail
