/// \file kernel_isa_avx2.cpp
/// \brief AVX2 tier of the kernel inner loops: 4 x i64 lanes per iteration.
///
/// LUT walks use `vpgatherqq` (one gather per 4 samples instead of 4
/// dependent scalar loads), and the wired-add closed forms run as 256-bit
/// integer bit arithmetic. Bit-identity with the baseline tier holds by
/// construction: a gather loads exactly the entries the scalar walk loads,
/// and every lane performs the same 64-bit mask/shift/add sequence; the
/// ragged tail (n % 4) runs the shared scalar reference element.
///
/// This TU — and only this TU — is compiled with -mavx2; it is added to the
/// build only when the compiler targets x86 and accepts the flag. Runtime
/// selection (isa.cpp) ensures these functions are never called on a CPU
/// without AVX2.
#include "isa_ops.hpp"

#if !defined(__AVX2__)
#error "kernel_isa_avx2.cpp must be compiled with -mavx2 (build system bug)"
#endif

#include <immintrin.h>

namespace xbs::arith::detail {
namespace {

inline __m256i bcast(u64 v) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

void gather_lut_n_avx2(const i64* table, u64 mask, const i64* x, i64* out,
                       std::size_t n) {
  const __m256i vmask = bcast(mask);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i idx = _mm256_and_si256(vx, vmask);
    const __m256i v =
        _mm256_i64gather_epi64(reinterpret_cast<const long long*>(table), idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < n; ++i) out[i] = table[static_cast<u64>(x[i]) & mask];
}

/// One vector step of the wired-add closed form over already-masked w-bit
/// operand vectors. Mirrors wired_add_one() lane for lane.
template <bool kSumIsB>
inline __m256i wired_add_vec(__m256i ua, __m256i ub, __m256i wmask, __m256i sbit,
                             __m256i kmask, __m256i himask, __m256i one,
                             __m128i shk, __m128i shk1, bool low_only) noexcept {
  if (low_only) {
    const __m256i low = kSumIsB ? ub : _mm256_andnot_si256(ua, wmask);
    return _mm256_sub_epi64(_mm256_xor_si256(low, sbit), sbit);
  }
  const __m256i low =
      kSumIsB ? _mm256_and_si256(ub, kmask) : _mm256_andnot_si256(ua, kmask);
  const __m256i carry = _mm256_and_si256(_mm256_srl_epi64(ua, shk1), one);
  const __m256i hi = _mm256_and_si256(
      _mm256_add_epi64(
          _mm256_add_epi64(_mm256_srl_epi64(ua, shk), _mm256_srl_epi64(ub, shk)),
          carry),
      himask);
  const __m256i r = _mm256_or_si256(_mm256_sll_epi64(hi, shk), low);
  return _mm256_sub_epi64(_mm256_xor_si256(r, sbit), sbit);
}

template <bool kSumIsB>
void wired_add_loop_avx2(const i64* a, const i64* b, i64* out, std::size_t n,
                         int w, int k) noexcept {
  const bool low_only = k >= w;
  const __m256i wmask = bcast(low_mask(w));
  const __m256i sbit = bcast(u64{1} << (w - 1));
  const __m256i kmask = bcast(low_mask(low_only ? w : k));
  const __m256i himask = bcast(low_mask(low_only ? 1 : w - k));
  const __m256i one = bcast(1);
  const __m128i shk = _mm_cvtsi32_si128(low_only ? 0 : k);
  const __m128i shk1 = _mm_cvtsi32_si128(low_only ? 0 : k - 1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), wmask);
    const __m256i vb = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), wmask);
    const __m256i r = wired_add_vec<kSumIsB>(va, vb, wmask, sbit, kmask, himask,
                                             one, shk, shk1, low_only);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  for (; i < n; ++i) out[i] = wired_add_one(a[i], b[i], w, k, kSumIsB);
}

void wired_add_n_avx2(const i64* a, const i64* b, i64* out, std::size_t n,
                      const WiredAddParams& p) {
  if (p.sum_is_b) {
    wired_add_loop_avx2<true>(a, b, out, n, p.width, p.approx_bits);
  } else {
    wired_add_loop_avx2<false>(a, b, out, n, p.width, p.approx_bits);
  }
}

}  // namespace

const KernelOps& avx2_ops() noexcept {
  static constexpr KernelOps ops{&gather_lut_n_avx2, &wired_add_n_avx2};
  return ops;
}

}  // namespace xbs::arith::detail
