/// \file crc32c.cpp
/// \brief Portable slice-by-8 CRC32C and the runtime tier selection.
#include "xbs/store/crc32c.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "xbs/common/sync.hpp"

namespace xbs::store {

namespace detail {
// Implemented in crc32c_sse42.cpp when the build compiles it (the only TU
// carrying -msse4.2); resolved weakly here via the XBS_HAVE_SSE42_CRC gate.
u32 crc32c_sse42(u32 crc, const void* data, std::size_t n) noexcept;
}  // namespace detail

namespace {

// CRC32C: reflected polynomial 0x82F63B78 (Castagnoli). Slice-by-8 tables,
// built once on first use — 8 * 256 * 4 bytes, cheaper than shipping 8 KiB
// of constants in the binary and identical by construction.
struct Tables {
  u32 t[8][256];

  Tables() noexcept {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i) {
      u32 c = t[0][i];
      for (int s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

const Tables& tables() noexcept {
  static const Tables t;
  return t;
}

using CrcFn = u32 (*)(u32, const void*, std::size_t) noexcept;

// Rank kTableCache: process-wide dispatch state, a leaf like every common::Memo.
common::Mutex g_mutex{common::LockRank::kTableCache};
std::atomic<CrcFn> g_fn{nullptr};
std::atomic<CrcImpl> g_impl{CrcImpl::Portable};
bool g_resolved XBS_GUARDED_BY(g_mutex) = false;

CrcFn fn_for(CrcImpl impl) noexcept {
  switch (impl) {
    case CrcImpl::Portable: return &crc32c_portable;
    case CrcImpl::Sse42:
#if defined(XBS_HAVE_SSE42_CRC)
      return &detail::crc32c_sse42;
#else
      return nullptr;
#endif
  }
  return nullptr;  // unreachable
}

CrcImpl best_impl() noexcept {
  return crc_impl_usable(CrcImpl::Sse42) ? CrcImpl::Sse42 : CrcImpl::Portable;
}

/// Publish a tier, falling back visibly when the request is unusable.
CrcImpl apply_locked(CrcImpl requested, bool from_env) noexcept XBS_REQUIRES(g_mutex) {
  CrcImpl selected = requested;
  if (!crc_impl_usable(requested)) {
    selected = best_impl();
    std::fprintf(stderr,
                 "xbs::store: requested CRC32C tier \"%.*s\"%s is unavailable; "
                 "falling back to \"%.*s\"\n",
                 static_cast<int>(to_string(requested).size()), to_string(requested).data(),
                 from_env ? " (XBS_CRC32C)" : "",
                 static_cast<int>(to_string(selected).size()), to_string(selected).data());
  }
  g_impl.store(selected, std::memory_order_relaxed);
  g_fn.store(fn_for(selected), std::memory_order_release);
  g_resolved = true;
  return selected;
}

CrcImpl resolve_auto_locked() noexcept XBS_REQUIRES(g_mutex) {
  const char* env = std::getenv("XBS_CRC32C");
  if (env != nullptr && *env != '\0') {
    if (const std::optional<CrcImpl> parsed = parse_crc_impl(env)) {
      return apply_locked(*parsed, /*from_env=*/true);
    }
    std::fprintf(stderr,
                 "xbs::store: unknown XBS_CRC32C value \"%s\" (expected portable|sse42); "
                 "using \"%.*s\"\n",
                 env, static_cast<int>(to_string(best_impl()).size()),
                 to_string(best_impl()).data());
  }
  return apply_locked(best_impl(), /*from_env=*/false);
}

}  // namespace

std::optional<CrcImpl> parse_crc_impl(std::string_view name) noexcept {
  if (name == to_string(CrcImpl::Portable)) return CrcImpl::Portable;
  if (name == to_string(CrcImpl::Sse42)) return CrcImpl::Sse42;
  return std::nullopt;
}

bool crc_impl_compiled(CrcImpl impl) noexcept { return fn_for(impl) != nullptr; }

bool crc_impl_usable(CrcImpl impl) noexcept {
  if (!crc_impl_compiled(impl)) return false;
  switch (impl) {
    case CrcImpl::Portable: return true;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    case CrcImpl::Sse42: return __builtin_cpu_supports("sse4.2") != 0;
#else
    case CrcImpl::Sse42: return false;
#endif
  }
  return false;  // unreachable
}

CrcImpl crc32c_impl() noexcept {
  if (g_fn.load(std::memory_order_acquire) == nullptr) {
    const common::MutexLock lock(g_mutex);
    if (!g_resolved) (void)resolve_auto_locked();
  }
  return g_impl.load(std::memory_order_relaxed);
}

CrcImpl force_crc32c_impl(CrcImpl impl) noexcept {
  const common::MutexLock lock(g_mutex);
  return apply_locked(impl, /*from_env=*/false);
}

CrcImpl force_crc32c_impl_auto() noexcept {
  const common::MutexLock lock(g_mutex);
  return resolve_auto_locked();
}

u32 crc32c(u32 crc, const void* data, std::size_t n) noexcept {
  CrcFn fn = g_fn.load(std::memory_order_acquire);
  if (fn == nullptr) {
    (void)crc32c_impl();  // first use: run startup resolution
    fn = g_fn.load(std::memory_order_acquire);
  }
  return fn(crc, data, n);
}

u32 crc32c_portable(u32 crc, const void* data, std::size_t n) noexcept {
  const Tables& tb = tables();
  const u8* p = static_cast<const u8*>(data);
  u32 c = ~crc;
  // Byte-wise to 8-byte alignment, then slice-by-8, then the tail.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --n;
  }
  while (n >= 8) {
    u64 w;
    std::memcpy(&w, p, 8);
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
    w = __builtin_bswap64(w);
#endif
    w ^= c;
    c = tb.t[7][w & 0xFFu] ^ tb.t[6][(w >> 8) & 0xFFu] ^ tb.t[5][(w >> 16) & 0xFFu] ^
        tb.t[4][(w >> 24) & 0xFFu] ^ tb.t[3][(w >> 32) & 0xFFu] ^
        tb.t[2][(w >> 40) & 0xFFu] ^ tb.t[1][(w >> 48) & 0xFFu] ^ tb.t[0][(w >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --n;
  }
  return ~c;
}

}  // namespace xbs::store
