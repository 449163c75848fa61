/// \file isa.cpp
/// \brief Runtime CPU detection and selection of the kernel-loop tier.
#include "xbs/arith/isa.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "isa_ops.hpp"
#include "xbs/common/sync.hpp"

namespace xbs::arith {
namespace {

// Selection state. Writes (startup resolution, test/bench forcing) are
// serialized by the mutex; the hot path reads only the atomic table
// pointer. kernel_isa()'s returned reference is stable storage — callers
// that force tiers concurrently with readers get torn notes, which is why
// forcing is documented as a setup-time knob.
// Rank kTableCache: process-wide dispatch state, a leaf like every common::Memo.
common::Mutex g_mutex{common::LockRank::kTableCache};
IsaSelection g_selection XBS_GUARDED_BY(g_mutex);  // NOLINT(cert-err58-cpp) — trivial until first use
bool g_resolved XBS_GUARDED_BY(g_mutex) = false;
std::atomic<const KernelOps*> g_ops{nullptr};

const KernelOps* compiled_ops(Isa isa) noexcept {
  switch (isa) {
    case Isa::Baseline: return &detail::baseline_ops();
    case Isa::Avx2:
#if defined(XBS_HAVE_AVX2)
      return &detail::avx2_ops();
#else
      return nullptr;
#endif
    case Isa::Avx512:
#if defined(XBS_HAVE_AVX512)
      return &detail::avx512_ops();
#else
      return nullptr;
#endif
  }
  return nullptr;  // unreachable
}

/// Build the selection for an explicit request, falling back to the widest
/// usable tier with an explanatory note when the request cannot run here.
IsaSelection resolve_request(Isa requested, bool from_env) {
  IsaSelection s;
  s.requested = requested;
  s.from_env = from_env;
  if (isa_usable(requested)) {
    s.selected = requested;
    return s;
  }
  s.selected = best_isa();
  s.fallback = true;
  const char* why = isa_compiled(requested) ? "the CPU does not support it"
                                            : "it was not compiled into this binary";
  s.note = "requested kernel ISA \"" + std::string(to_string(requested)) +
           (from_env ? "\" (XBS_KERNEL_ISA)" : "\"") + " is unavailable (" + why +
           "); falling back to \"" + std::string(to_string(s.selected)) + "\"";
  return s;
}

/// Publish a selection: swap the dispatch table and make the fallback
/// visible on stderr (once per publication, i.e. once at startup for the
/// env path).
const IsaSelection& apply_locked(IsaSelection s) XBS_REQUIRES(g_mutex) {
  g_selection = std::move(s);
  g_resolved = true;
  g_ops.store(compiled_ops(g_selection.selected), std::memory_order_release);
  if (g_selection.fallback) {
    std::fprintf(stderr, "xbs::arith: %s\n", g_selection.note.c_str());
  }
  return g_selection;
}

IsaSelection resolve_auto() {
  const char* env = std::getenv("XBS_KERNEL_ISA");
  if (env != nullptr && *env != '\0') {
    if (const std::optional<Isa> parsed = parse_isa(env)) {
      return resolve_request(*parsed, /*from_env=*/true);
    }
    IsaSelection s;
    s.requested = best_isa();
    s.selected = s.requested;
    s.fallback = true;
    s.from_env = true;
    s.note = "unknown XBS_KERNEL_ISA value \"" + std::string(env) +
             "\" (expected baseline|avx2|avx512); using \"" +
             std::string(to_string(s.selected)) + "\"";
    return s;
  }
  IsaSelection s;
  s.requested = best_isa();
  s.selected = s.requested;
  return s;
}

}  // namespace

std::optional<Isa> parse_isa(std::string_view name) noexcept {
  for (const Isa isa : kAllIsas) {
    if (name == to_string(isa)) return isa;
  }
  return std::nullopt;
}

bool isa_compiled(Isa isa) noexcept { return compiled_ops(isa) != nullptr; }

bool isa_cpu_supported(Isa isa) noexcept {
  switch (isa) {
    case Isa::Baseline: return true;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    // __builtin_cpu_supports also checks the OS's XSAVE state for the AVX
    // register files, so "supported" means "will not fault".
    case Isa::Avx2: return __builtin_cpu_supports("avx2") != 0;
    case Isa::Avx512: return __builtin_cpu_supports("avx512f") != 0;
#else
    case Isa::Avx2:
    case Isa::Avx512: return false;
#endif
  }
  return false;  // unreachable
}

bool isa_usable(Isa isa) noexcept {
  return isa_compiled(isa) && isa_cpu_supported(isa);
}

Isa best_isa() noexcept {
  if (isa_usable(Isa::Avx512)) return Isa::Avx512;
  if (isa_usable(Isa::Avx2)) return Isa::Avx2;
  return Isa::Baseline;
}

const IsaSelection& kernel_isa() {
  const common::MutexLock lock(g_mutex);
  if (!g_resolved) return apply_locked(resolve_auto());
  return g_selection;
}

IsaSelection force_kernel_isa(Isa isa) {
  const common::MutexLock lock(g_mutex);
  return apply_locked(resolve_request(isa, /*from_env=*/false));
}

IsaSelection force_kernel_isa_auto() {
  const common::MutexLock lock(g_mutex);
  return apply_locked(resolve_auto());
}

const KernelOps& kernel_ops() noexcept {
  const KernelOps* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    (void)kernel_isa();  // first use: run startup resolution
    ops = g_ops.load(std::memory_order_acquire);
  }
  return *ops;
}

const KernelOps* kernel_ops_for(Isa isa) noexcept {
  return isa_usable(isa) ? compiled_ops(isa) : nullptr;
}

}  // namespace xbs::arith
