/// \file kernel_isa_avx512.cpp
/// \brief AVX-512F tier of the kernel inner loops: 8 x i64 lanes.
///
/// Same structure as the AVX2 tier, at twice the width: wired_add.hpp's loop
/// vectorized under -mavx512f, and a `vpgatherqq` walk over zmm that loads 8
/// table entries per instruction.
///
/// Compiled with -mavx512f on this TU only; added to the build only when
/// the compiler targets x86 and accepts the flag, and called only when
/// CPUID (plus OS state-save support) reports AVX-512F at runtime.
#include "isa_ops.hpp"
#include "wired_add.hpp"

#if !defined(__AVX512F__)
#error "kernel_isa_avx512.cpp must be compiled with -mavx512f (build system bug)"
#endif

#include <immintrin.h>

namespace xbs::arith::detail {
namespace {

void gather_lut_n_avx512(const i64* table, u64 mask, const i64* x, i64* out, std::size_t n) {
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  // A full-mask gather with an explicit zero pass-through makes the same
  // loads as the plain gather, without the _mm512_undefined_* source operand
  // that GCC's -Wmaybe-uninitialized (correctly, pedantically) flags.
  const __m512i zero = _mm512_setzero_si512();
  const __mmask8 all = 0xFF;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i idx = _mm512_and_si512(_mm512_loadu_si512(x + i), vmask);
    _mm512_storeu_si512(out + i, _mm512_mask_i64gather_epi64(zero, all, idx, table, 8));
  }
  for (; i < n; ++i) out[i] = table[static_cast<u64>(x[i]) & mask];
}

}  // namespace

const KernelOps& avx512_ops() noexcept {
  static constexpr KernelOps ops{&gather_lut_n_avx512, &wired_add_n};
  return ops;
}

}  // namespace xbs::arith::detail
