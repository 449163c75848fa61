/// \file isa.hpp
/// \brief Runtime CPU dispatch for the vector kernel inner loops.
///
/// The table-driven approximate kernels (kernel.hpp) spend their time in
/// two loop shapes: gathered LUT walks (square table, signed
/// per-coefficient product rows) and the carry-free wired-add closed forms
/// (AMA4/AMA5). There are three instruction-set tiers — portable baseline,
/// AVX2 (4 x i64 lanes), AVX-512F (8 x i64 lanes) — each its own
/// translation unit, so only those TUs carry `-mavx2` / `-mavx512f`. The
/// wired-add loop has one source, which every tier's TU compiles and the
/// compiler vectorizes under that tier's flag; the AVX tiers write their
/// table walks as `vpgatherqq` intrinsics, which the compiler does not emit
/// from the portable loop. A function-pointer table (`KernelOps`) is
/// selected once at startup from CPUID, overridable with the
/// `XBS_KERNEL_ISA` environment variable (`baseline` | `avx2` | `avx512`)
/// for testing and CI.
///
/// Every tier is bit-identical by construction: each runs the same
/// wired-add source, and gathers load exactly the entries the scalar walk
/// loads. tests/test_kernel_dispatch.cpp checks every usable tier's ops
/// against the adder model, and whole pipelines per Fig. 12 configuration
/// under each forced tier.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Instruction-set tiers of the kernel inner loops, widest last.
enum class Isa { Baseline = 0, Avx2 = 1, Avx512 = 2 };

inline constexpr Isa kAllIsas[] = {Isa::Baseline, Isa::Avx2, Isa::Avx512};

[[nodiscard]] constexpr std::string_view to_string(Isa isa) noexcept {
  switch (isa) {
    case Isa::Baseline: return "baseline";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "baseline";  // unreachable
}

/// Parse an ISA name (the XBS_KERNEL_ISA vocabulary). Nullopt on anything
/// else — the caller decides whether that is a fallback or an error.
[[nodiscard]] std::optional<Isa> parse_isa(std::string_view name) noexcept;

/// Whether vector code for \p isa was compiled into this binary (the build
/// gates the AVX TUs on compiler/architecture support).
[[nodiscard]] bool isa_compiled(Isa isa) noexcept;

/// Whether the running CPU (and OS context-save state) can execute \p isa.
[[nodiscard]] bool isa_cpu_supported(Isa isa) noexcept;

/// compiled-in AND executable here — i.e. selectable.
[[nodiscard]] bool isa_usable(Isa isa) noexcept;

/// The widest usable ISA on this machine (what auto-selection picks).
[[nodiscard]] Isa best_isa() noexcept;

/// Outcome of an ISA selection: what was requested, what was actually
/// selected, and a human-readable note when they differ. The note is the
/// "visible report" of a graceful fallback — it is also printed once to
/// stderr when an explicit request (env var or force call) cannot be
/// honoured, so a misconfigured deployment is never silently slow or,
/// worse, silently crashy.
struct IsaSelection {
  Isa selected = Isa::Baseline;
  Isa requested = Isa::Baseline;
  bool fallback = false;  ///< requested tier was unusable; fell back
  bool from_env = false;  ///< request came from XBS_KERNEL_ISA
  std::string note;       ///< non-empty exactly when fallback (or bad name)
};

/// The process-wide selection, resolved once on first use: XBS_KERNEL_ISA
/// if set (unusable or unknown values fall back to best_isa() with a
/// visible report), otherwise best_isa() from CPUID.
[[nodiscard]] const IsaSelection& kernel_isa();

/// Force a selection (tests / benches). An unusable request falls back
/// exactly like the env path and reports it in the returned selection.
/// Takes effect for subsequent batched kernel calls; call it only while no
/// other thread is inside a kernel batch (test/bench setup, not a
/// serving-time knob).
IsaSelection force_kernel_isa(Isa isa);

/// Re-run startup resolution (XBS_KERNEL_ISA / CPUID) — lets tests restore
/// the default after forcing tiers, and exercise the env-var path.
IsaSelection force_kernel_isa_auto();

// ----------------------------------------------------------- dispatch seam

/// Parameters of the carry-free wired-add closed form, decoded once per
/// kernel construction (see ApproxKernel in kernel.hpp).
struct WiredAddParams {
  int width = 32;        ///< adder width w
  int approx_bits = 0;   ///< k: approximate LSB region, in [0, w] (0 = exact add)
  bool sum_is_b = true;  ///< AMA5 low sum = B; AMA4 low sum = NOT A
};

/// Per-ISA implementations of the two hot loop shapes. All pointers are
/// always non-null in a published table.
struct KernelOps {
  /// out[i] = table[(u64)x[i] & mask]. `out` may alias `x` element-wise
  /// (the in-place SQR walk); `table` never aliases either.
  void (*gather_lut_n)(const i64* table, u64 mask, const i64* x, i64* out,
                       std::size_t n);
  /// out[i] = wired_add(a[i], b[i]) under \p p. `out` may alias `a` or `b`
  /// element-wise (the FIR row accumulate runs in place).
  void (*wired_add_n)(const i64* a, const i64* b, i64* out, std::size_t n,
                      const WiredAddParams& p);
};

/// The dispatch table of the currently selected ISA: one atomic pointer
/// load, done once per batched kernel call.
[[nodiscard]] const KernelOps& kernel_ops() noexcept;

/// The table of a specific tier, or nullptr when that tier is not usable
/// in this process (benches iterate usable tiers with this).
[[nodiscard]] const KernelOps* kernel_ops_for(Isa isa) noexcept;

}  // namespace xbs::arith
