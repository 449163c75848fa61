/// \file kernel_isa_avx512.cpp
/// \brief AVX-512F tier of the kernel inner loops: 8 x i64 lanes per
/// iteration.
///
/// Same structure as the AVX2 tier, at twice the width: `vpgatherqq` over
/// zmm gathers 8 table entries per instruction, and the wired-add closed
/// forms run as 512-bit integer bit arithmetic (all AVX-512F). The ragged
/// tail (n % 8) runs the shared scalar reference element, so every lane —
/// vector or tail — computes exactly the baseline's 64-bit sequence.
///
/// Compiled with -mavx512f on this TU only; added to the build only when
/// the compiler targets x86 and accepts the flag, and called only when
/// CPUID (plus OS state-save support) reports AVX-512F at runtime.
#include "isa_ops.hpp"

#if !defined(__AVX512F__)
#error "kernel_isa_avx512.cpp must be compiled with -mavx512f (build system bug)"
#endif

#include <immintrin.h>

namespace xbs::arith::detail {
namespace {

inline __m512i bcast(u64 v) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// Full-mask gather with an explicit zero pass-through: identical loads to
/// the plain gather, but avoids the _mm512_undefined_* source operand that
/// GCC's -Wmaybe-uninitialized (correctly, pedantically) flags.
inline __m512i gather8(__m512i idx, const i64* table) noexcept {
  return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(),
                                     static_cast<__mmask8>(0xFF), idx, table, 8);
}

void gather_lut_n_avx512(const i64* table, u64 mask, const i64* x, i64* out,
                         std::size_t n) {
  const __m512i vmask = bcast(mask);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vx = _mm512_loadu_si512(x + i);
    const __m512i idx = _mm512_and_si512(vx, vmask);
    const __m512i v = gather8(idx, table);
    _mm512_storeu_si512(out + i, v);
  }
  for (; i < n; ++i) out[i] = table[static_cast<u64>(x[i]) & mask];
}

template <bool kSumIsB>
inline __m512i wired_add_vec(__m512i ua, __m512i ub, __m512i wmask, __m512i sbit,
                             __m512i kmask, __m512i himask, __m512i one,
                             __m128i shk, __m128i shk1, bool low_only) noexcept {
  if (low_only) {
    const __m512i low = kSumIsB ? ub : _mm512_andnot_si512(ua, wmask);
    return _mm512_sub_epi64(_mm512_xor_si512(low, sbit), sbit);
  }
  const __m512i low =
      kSumIsB ? _mm512_and_si512(ub, kmask) : _mm512_andnot_si512(ua, kmask);
  const __m512i carry = _mm512_and_si512(_mm512_srl_epi64(ua, shk1), one);
  const __m512i hi = _mm512_and_si512(
      _mm512_add_epi64(
          _mm512_add_epi64(_mm512_srl_epi64(ua, shk), _mm512_srl_epi64(ub, shk)),
          carry),
      himask);
  const __m512i r = _mm512_or_si512(_mm512_sll_epi64(hi, shk), low);
  return _mm512_sub_epi64(_mm512_xor_si512(r, sbit), sbit);
}

template <bool kSumIsB>
void wired_add_loop_avx512(const i64* a, const i64* b, i64* out, std::size_t n,
                           int w, int k) noexcept {
  const bool low_only = k >= w;
  const __m512i wmask = bcast(low_mask(w));
  const __m512i sbit = bcast(u64{1} << (w - 1));
  const __m512i kmask = bcast(low_mask(low_only ? w : k));
  const __m512i himask = bcast(low_mask(low_only ? 1 : w - k));
  const __m512i one = bcast(1);
  const __m128i shk = _mm_cvtsi32_si128(low_only ? 0 : k);
  const __m128i shk1 = _mm_cvtsi32_si128(low_only ? 0 : k - 1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_and_si512(_mm512_loadu_si512(a + i), wmask);
    const __m512i vb = _mm512_and_si512(_mm512_loadu_si512(b + i), wmask);
    const __m512i r = wired_add_vec<kSumIsB>(va, vb, wmask, sbit, kmask, himask,
                                             one, shk, shk1, low_only);
    _mm512_storeu_si512(out + i, r);
  }
  for (; i < n; ++i) out[i] = wired_add_one(a[i], b[i], w, k, kSumIsB);
}

void wired_add_n_avx512(const i64* a, const i64* b, i64* out, std::size_t n,
                        const WiredAddParams& p) {
  if (p.sum_is_b) {
    wired_add_loop_avx512<true>(a, b, out, n, p.width, p.approx_bits);
  } else {
    wired_add_loop_avx512<false>(a, b, out, n, p.width, p.approx_bits);
  }
}

}  // namespace

const KernelOps& avx512_ops() noexcept {
  static constexpr KernelOps ops{&gather_lut_n_avx512, &wired_add_n_avx512};
  return ops;
}

}  // namespace xbs::arith::detail
