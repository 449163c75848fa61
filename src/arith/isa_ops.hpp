/// \file isa_ops.hpp
/// \brief Internal seam between the dispatch (isa.cpp) and the per-ISA
/// kernel-loop translation units. Not installed: the public surface is
/// xbs/arith/isa.hpp.
#pragma once

#include "xbs/arith/isa.hpp"

namespace xbs::arith::detail {

/// Portable tier (always compiled).
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
