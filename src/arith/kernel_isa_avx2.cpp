/// \file kernel_isa_avx2.cpp
/// \brief AVX2 tier of the kernel inner loops: 4 x i64 lanes.
///
/// The wired-add loop is wired_add.hpp's, vectorized by the compiler under
/// this TU's -mavx2. The table walk is written in intrinsics because GCC
/// leaves the portable walk scalar: `vpgatherqq` loads 4 entries per
/// instruction, exactly the entries the scalar walk loads.
///
/// This TU — and only this TU — is compiled with -mavx2; it is added to the
/// build only when the compiler targets x86 and accepts the flag. Runtime
/// selection (isa.cpp) ensures these functions are never called on a CPU
/// without AVX2.
#include "isa_ops.hpp"
#include "wired_add.hpp"

#if !defined(__AVX2__)
#error "kernel_isa_avx2.cpp must be compiled with -mavx2 (build system bug)"
#endif

#include <immintrin.h>

namespace xbs::arith::detail {
namespace {

void gather_lut_n_avx2(const i64* table, u64 mask, const i64* x, i64* out, std::size_t n) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i idx = _mm256_and_si256(vx, vmask);
    const __m256i v = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(table), idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < n; ++i) out[i] = table[static_cast<u64>(x[i]) & mask];
}

}  // namespace

const KernelOps& avx2_ops() noexcept {
  static constexpr KernelOps ops{&gather_lut_n_avx2, &wired_add_n};
  return ops;
}

}  // namespace xbs::arith::detail
