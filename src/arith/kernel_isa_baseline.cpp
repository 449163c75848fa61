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

// The `(x ^ sbit) - sbit` sign folds in the loop bodies wrap u64 by design
// (two's-complement sign extension, see bitops.hpp) — exempt from the
// -fsanitize=integer checks.
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
  // k = 0 has no approximate region and so no carry out of it: carry-in 0,
  // what the vector tiers' out-of-range shift count yields.
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

void wired_add_n_baseline(const i64* a, const i64* b, i64* out, std::size_t n,
                          const WiredAddParams& p) {
  if (p.sum_is_b) {
    wired_add_loop<true>(a, b, out, n, p.width, p.approx_bits);
  } else {
    wired_add_loop<false>(a, b, out, n, p.width, p.approx_bits);
  }
}

}  // namespace

const KernelOps& baseline_ops() noexcept {
  static constexpr KernelOps ops{&gather_lut_n_baseline, &wired_add_n_baseline};
  return ops;
}

}  // namespace xbs::arith::detail
