/// \file kernel_isa_baseline.cpp
/// \brief Portable tier of the kernel inner loops, compiled with the
/// library's own flags. Its wired-add loop is the one in wired_add.hpp,
/// which every tier compiles; its table walk is the plain scalar loop that
/// the vector tiers replace with gathers.
#include "isa_ops.hpp"
#include "wired_add.hpp"

namespace xbs::arith::detail {
namespace {

#if defined(_MSC_VER)
#define XBS_RESTRICT __restrict
#else
#define XBS_RESTRICT __restrict__
#endif

void gather_lut_n_baseline(const i64* table, u64 mask, const i64* x, i64* out, std::size_t n) {
  // No restrict on x/out: the in-place SQR walk aliases them fully, and
  // out[i] is written strictly after x[i] is read.
  const i64* XBS_RESTRICT t = table;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = t[static_cast<u64>(x[i]) & mask];
  }
}

}  // namespace

const KernelOps& baseline_ops() noexcept {
  static constexpr KernelOps ops{&gather_lut_n_baseline, &wired_add_n};
  return ops;
}

}  // namespace xbs::arith::detail
