#include "xbs/arith/kernel.hpp"

#include <algorithm>
#include <atomic>

#include "xbs/arith/isa.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/common/sync.hpp"

namespace xbs::arith {
namespace {

/// Blocks shorter than this fall back to the scalar multiplier instead of
/// building a per-coefficient product/square table (2^w multiplies to fill):
/// below the threshold a *cold* build cannot pay for itself within one call.
/// Warm tables (pre-built by stream::StreamServer / pantompkins::warm_* or by
/// any earlier large block) are used at every size, so the threshold is moot
/// for long-running streaming processes.
constexpr std::size_t kCoeffTableThreshold = 512;

#if defined(_MSC_VER)
#define XBS_RESTRICT __restrict
#else
#define XBS_RESTRICT __restrict__
#endif

}  // namespace

// ---------------------------------------------------------------- Kernel base

void Kernel::add_n_impl(std::span<const i64> a, std::span<const i64> b,
                        std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = add1(a[i], b[i]);
}

void Kernel::sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                        std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = sub1(a[i], b[i]);
}

void Kernel::mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                        std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = mul1(a[i], b[i]);
}

void Kernel::mul_cn_impl(i64 c, std::span<const i64> x, std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = mul1(c, x[i]);
}

void Kernel::mac_n_impl(i64 c, std::span<const i64> x, std::span<i64> acc) const {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = add1(acc[i], mul1(c, x[i]));
}

void Kernel::fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                        std::span<i64> acc) const {
  // Reference chain: one mul_cn for the first non-zero tap, one mac_n per
  // subsequent one, in tap order — the scalar per-sample dataflow, batched.
  const std::size_t T = taps.size();
  const std::size_t n = acc.size();
  bool first = true;
  for (std::size_t j = 0; j < T; ++j) {
    if (taps[j] == 0) continue;
    const std::span<const i64> xs = padded.subspan(T - 1 - j, n);
    if (first) {
      mul_cn_impl(taps[j], xs, acc);
      first = false;
    } else {
      mac_n_impl(taps[j], xs, acc);
    }
  }
  if (first) std::fill(acc.begin(), acc.end(), i64{0});
}

// ----------------------------------------------------------------- ExactKernel

i64 ExactKernel::add1(i64 a, i64 b) const {
  return sign_extend(to_unsigned_bits(a + b, 32), 32);
}

i64 ExactKernel::sub1(i64 a, i64 b) const {
  return sign_extend(to_unsigned_bits(a - b, 32), 32);
}

i64 ExactKernel::mul1(i64 a, i64 b) const {
  const i64 sa = sign_extend(to_unsigned_bits(a, 16), 16);
  const i64 sb = sign_extend(to_unsigned_bits(b, 16), 16);
  return sa * sb;
}

// The exact loops avoid per-element helper calls: truncate-then-sign-extend
// of the low 32 (16) bits is exactly a cast through i32 (i16) in C++20
// two's-complement arithmetic, which the compiler auto-vectorizes.

void ExactKernel::add_n_impl(std::span<const i64> a, std::span<const i64> b,
                             std::span<i64> out) const {
  // No restrict: element-wise aliasing with `out` is part of the contract;
  // out[i] depends only on index i, so the loop still vectorizes (the
  // compiler versions it with a runtime overlap check).
  const i64* pa = a.data();
  const i64* pb = b.data();
  i64* po = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = static_cast<i32>(static_cast<u32>(pa[i] + pb[i]));
  }
}

void ExactKernel::sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                             std::span<i64> out) const {
  const i64* pa = a.data();
  const i64* pb = b.data();
  i64* po = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = static_cast<i32>(static_cast<u32>(pa[i] - pb[i]));
  }
}

void ExactKernel::mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                             std::span<i64> out) const {
  const i64* pa = a.data();
  const i64* pb = b.data();
  i64* po = out.data();  // may alias pa/pb element-wise (kernel contract)
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = static_cast<i64>(static_cast<i16>(static_cast<u16>(pa[i]))) *
            static_cast<i64>(static_cast<i16>(static_cast<u16>(pb[i])));
  }
}

void ExactKernel::mul_cn_impl(i64 c, std::span<const i64> x, std::span<i64> out) const {
  const i64 sc = static_cast<i16>(static_cast<u16>(c));
  const i64* XBS_RESTRICT px = x.data();
  i64* XBS_RESTRICT po = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = sc * static_cast<i64>(static_cast<i16>(static_cast<u16>(px[i])));
  }
}

void ExactKernel::mac_n_impl(i64 c, std::span<const i64> x, std::span<i64> acc) const {
  const i64 sc = static_cast<i16>(static_cast<u16>(c));
  const i64* XBS_RESTRICT px = x.data();
  i64* XBS_RESTRICT pa = acc.data();
  const std::size_t n = acc.size();
  for (std::size_t i = 0; i < n; ++i) {
    const i64 p = sc * static_cast<i64>(static_cast<i16>(static_cast<u16>(px[i])));
    pa[i] = static_cast<i32>(static_cast<u32>(pa[i] + p));
  }
}

// ---------------------------------------------------------------- ApproxKernel

ApproxKernel::ApproxKernel(const StageArithConfig& cfg)
    : cfg_(cfg),
      adder_(cfg.adder),
      mult_owner_(get_multiplier(cfg.mult)),
      mult_(mult_owner_.get()) {
  // Decode the adder once: the carry-free mirror adders evaluate in closed
  // form (see AddFastPath). Positions below `approx_bits_` are approximate.
  approx_bits_ = std::clamp(cfg.adder.approx_lsbs - cfg.adder.weight_offset, 0,
                            cfg.adder.width);
  if (approx_bits_ > 0 && cfg.adder.width <= 63) {
    if (cfg.adder.kind == AdderKind::Approx5) add_path_ = AddFastPath::SumIsB;
    if (cfg.adder.kind == AdderKind::Approx4) add_path_ = AddFastPath::SumIsNotA;
  }
  wired_params_.width = cfg.adder.width;
  wired_params_.approx_bits = approx_bits_;
  wired_params_.sum_is_b = add_path_ == AddFastPath::SumIsB;
  wired_params_.negate_b = false;
}

i64 ApproxKernel::wired_add(u64 ua, u64 ub) const noexcept {
  // Approximate low region of a carry-free mirror adder: the low sum bits
  // are pure wiring (B for AMA5, NOT A for AMA4) and the carry into the
  // accurate high region is A's top approximate bit (Cout = A in both
  // kinds; the carry-in is ignored by the first approximate FA, so this
  // covers the subtractor's injected carry too). The accurate high region
  // is one native add, exactly like RippleCarryAdder's fast path.
  const int w = cfg_.adder.width;
  const int k = approx_bits_;
  const u64 low =
      (add_path_ == AddFastPath::SumIsB ? ub : ~ua) & low_mask(k);
  if (k >= w) return sign_extend(low & low_mask(w), w);
  const u64 carry = (ua >> (k - 1)) & 1u;
  const u64 hi = ((ua >> k) + (ub >> k) + carry) & low_mask(w - k);
  return sign_extend((hi << k) | low, w);
}

i64 ApproxKernel::add_signed_fast(i64 a, i64 b) const noexcept {
  if (add_path_ == AddFastPath::Generic) return adder_.add_signed(a, b);
  const int w = cfg_.adder.width;
  return wired_add(to_unsigned_bits(a, w), to_unsigned_bits(b, w));
}

i64 ApproxKernel::sub_signed_fast(i64 a, i64 b) const noexcept {
  if (add_path_ == AddFastPath::Generic) return adder_.sub_signed(a, b);
  const int w = cfg_.adder.width;
  // One's complement + carry-in, as in the adder-subtractor datapath; the
  // injected carry-in dies at the first approximate FA (see wired_add).
  return wired_add(to_unsigned_bits(a, w), (~to_unsigned_bits(b, w)) & low_mask(w));
}

i64 ApproxKernel::add1(i64 a, i64 b) const { return adder_.add_signed(a, b); }

i64 ApproxKernel::sub1(i64 a, i64 b) const { return adder_.sub_signed(a, b); }

i64 ApproxKernel::mul1(i64 a, i64 b) const { return mult_->multiply_signed(a, b); }

// The batched loop bodies live behind the runtime ISA dispatch (isa.hpp):
// one atomic table-pointer load per *_n call selects the scalar baseline or
// the AVX2/AVX-512 vector loops, all bit-identical to the closed forms
// above (asserted per forced ISA in tests/test_kernel_dispatch.cpp).

void ApproxKernel::add_n_impl(std::span<const i64> a, std::span<const i64> b,
                              std::span<i64> out) const {
  const std::size_t n = out.size();
  if (add_path_ != AddFastPath::Generic) {
    kernel_ops().wired_add_n(a.data(), b.data(), out.data(), n, wired_params_);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = adder_.add_signed(a[i], b[i]);
}

void ApproxKernel::sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                              std::span<i64> out) const {
  const std::size_t n = out.size();
  if (add_path_ != AddFastPath::Generic) {
    WiredAddParams p = wired_params_;
    p.negate_b = true;  // one's complement + injected carry (see wired_add)
    kernel_ops().wired_add_n(a.data(), b.data(), out.data(), n, p);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = adder_.sub_signed(a[i], b[i]);
}

void ApproxKernel::mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                              std::span<i64> out) const {
  const std::size_t n = out.size();
  if (a.data() == b.data()) {
    // The squaring pattern (SQR stage): one masked (per-lane gathered) load
    // per sample from the per-config square table. Full in-place aliasing
    // with `out` is fine — out[i] is written strictly after a[i] is read.
    if (const i64* sq = square_table(n)) {
      kernel_ops().gather_lut_n(sq, low_mask(cfg_.mult.width), a.data(),
                                out.data(), n);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = mult_->multiply_signed(a[i], b[i]);
}

const i64* ApproxKernel::coeff_table(i64 c, std::size_t n) const {
  for (const CoeffTable& t : coeff_tables_) {
    if (t.coeff == c) return t.data;
  }
  auto products = n >= kCoeffTableThreshold ? get_signed_coeff_products(cfg_.mult, c)
                                            : peek_signed_coeff_products(cfg_.mult, c);
  if (products == nullptr) return nullptr;
  CoeffTable t;
  t.coeff = c;
  t.data = products->data();
  t.owner = std::move(products);
  coeff_tables_.push_back(std::move(t));
  return coeff_tables_.back().data;
}

const i64* ApproxKernel::square_table(std::size_t n) const {
  if (square_ != nullptr) return square_;
  auto table = n >= kCoeffTableThreshold ? get_square_products(cfg_.mult)
                                         : peek_square_products(cfg_.mult);
  if (table == nullptr) return nullptr;
  square_owner_ = std::move(table);
  square_ = square_owner_->data();
  return square_;
}

void ApproxKernel::mul_cn_impl(i64 c, std::span<const i64> x, std::span<i64> out) const {
  // Below the threshold a cold table build cannot pay for itself, but a warm
  // one (kernel-local or process-wide) is still the fast path. The signed
  // table folds the coefficient's and operand's signs in, so the walk is one
  // masked load per sample. `out` must not alias `x` (FIR contract).
  const std::size_t n = out.size();
  const i64* prod = coeff_table(c, n);
  if (prod == nullptr) {
    for (std::size_t i = 0; i < n; ++i) out[i] = mult_->multiply_signed(c, x[i]);
    return;
  }
  kernel_ops().gather_lut_n(prod, low_mask(cfg_.mult.width), x.data(), out.data(), n);
}

void ApproxKernel::fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                              std::span<i64> acc) const {
  // Product-row compilation: the tap loop re-reads the same input samples
  // once per tap, so gather the signed products P_c[x] once per *distinct*
  // coefficient over the whole padded window and reduce the tap loop to pure
  // carry-free adds over shifted row views. Bit-identical to the per-tap
  // chain: the products are the same table loads, the adds the same wired
  // closed forms, in the same tap order.
  const std::size_t T = taps.size();
  const std::size_t n = acc.size();
  if (n == 0) return;

  // Distinct non-zero coefficients, and each tap's row index.
  i32 distinct[64];
  std::size_t n_distinct = 0;
  std::size_t nonzero = 0;
  bool tables_ok = true;
  for (std::size_t j = 0; j < T && tables_ok; ++j) {
    const int c = taps[j];
    if (c == 0) continue;
    ++nonzero;
    bool seen = false;
    for (std::size_t d = 0; d < n_distinct; ++d) seen |= (distinct[d] == c);
    if (!seen) {
      if (n_distinct == 64 || coeff_table(c, n) == nullptr) {
        tables_ok = false;  // cold table (or absurd tap set): take the chain
        break;
      }
      distinct[n_distinct++] = c;
    }
  }
  if (!tables_ok || nonzero == 0 || add_path_ == AddFastPath::Generic) {
    Kernel::fir_n_impl(taps, padded, acc);
    return;
  }

  const u64 mmask = low_mask(cfg_.mult.width);
  const KernelOps& ops = kernel_ops();
  fir_rows_.resize(n_distinct);
  for (std::size_t d = 0; d < n_distinct; ++d) {
    const i64* prod = coeff_table(distinct[d], n);
    std::vector<i64>& row = fir_rows_[d];
    row.resize(padded.size());
    ops.gather_lut_n(prod, mmask, padded.data(), row.data(), padded.size());
  }
  auto row_of = [&](int c) -> const i64* {
    for (std::size_t d = 0; d < n_distinct; ++d) {
      if (distinct[d] == c) return fir_rows_[d].data();
    }
    return nullptr;  // unreachable
  };

  bool first = true;
  for (std::size_t j = 0; j < T; ++j) {
    if (taps[j] == 0) continue;
    const i64* row = row_of(taps[j]) + (T - 1 - j);
    if (first) {
      std::copy_n(row, n, acc.data());
      first = false;
    } else {
      // In-place accumulate (out aliases a element-wise — loop contract).
      ops.wired_add_n(acc.data(), row, acc.data(), n, wired_params_);
    }
  }
}

void ApproxKernel::mac_n_impl(i64 c, std::span<const i64> x, std::span<i64> acc) const {
  const std::size_t n = acc.size();
  const i64* prod = coeff_table(c, n);
  if (prod == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = add_signed_fast(acc[i], mult_->multiply_signed(c, x[i]));
    }
    return;
  }
  if (add_path_ != AddFastPath::Generic) {
    // Fused gathered table walk + carry-free accumulate: the accumulator on
    // the A port, the product on the B port — the same operand order as the
    // scalar chain add(acc, mul(c, x)).
    kernel_ops().wired_mac_n(prod, low_mask(cfg_.mult.width), x.data(), acc.data(),
                             n, wired_params_);
    return;
  }
  const u64 mmask = low_mask(cfg_.mult.width);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = adder_.add_signed(acc[i], prod[static_cast<u64>(x[i]) & mmask]);
  }
}

// -------------------------------------------------------------------- factory

std::unique_ptr<Kernel> make_kernel(const StageArithConfig& cfg) {
  if (cfg.is_exact()) return std::make_unique<ExactKernel>();
  return std::make_unique<ApproxKernel>(cfg);
}

// ------------------------------------------------- product table caches

namespace {

// Cache entries are cache-line aligned: the process-wide caches are walked
// concurrently by every stream::StreamServer worker, and a 64-byte entry
// stride keeps one worker's entry (and the vector growth that publishes a
// neighbour) from false-sharing another's hot line.

/// Magnitude-indexed product rows M[m] = multiply_u(|c|, m) — the expensive
/// build, shared between +c and -c (and reused for the square diagonal).
struct alignas(64) MagnitudeCacheEntry {
  MultiplierConfig cfg;
  u64 magnitude;
  std::shared_ptr<const TableVec> table;
};

/// Full signed per-coefficient tables P[u] = mul1(c, sign_extend(u, w)),
/// keyed by the sign-extended coefficient value.
struct alignas(64) SignedCacheEntry {
  MultiplierConfig cfg;
  i64 coeff;
  std::shared_ptr<const TableVec> table;
};

/// Per-config square tables S[u] = mul1(x, x), x = sign_extend(u, w).
struct alignas(64) SquareCacheEntry {
  MultiplierConfig cfg;
  std::shared_ptr<const TableVec> table;
};

// The caches are shared by every kernel in the process and are hit from the
// concurrent sessions of a stream::StreamServer and the parallel exploration
// workers, so reads and inserts are serialized. The tables themselves are
// immutable once published; racing builders of the same table publish
// equivalent duplicates (last one wins, both bit-identical). The build
// counters count actual cold fills (not hits) and feed table_cache_stats().
// Rank kTableCache: a leaf — table fills run *outside* the lock, and nothing
// else is ever acquired under it.
struct TableCaches {
  common::Mutex mutex{common::LockRank::kTableCache};
  std::vector<MagnitudeCacheEntry> magnitude XBS_GUARDED_BY(mutex);
  std::vector<SignedCacheEntry> signed_coeff XBS_GUARDED_BY(mutex);
  std::vector<SquareCacheEntry> square XBS_GUARDED_BY(mutex);
  u64 magnitude_builds XBS_GUARDED_BY(mutex) = 0;
  u64 signed_builds XBS_GUARDED_BY(mutex) = 0;
  u64 square_builds XBS_GUARDED_BY(mutex) = 0;
};

TableCaches& caches() {
  static TableCaches c;
  return c;
}

std::shared_ptr<const TableVec> get_magnitude_products(const MultiplierConfig& cfg,
                                                       u64 magnitude) {
  {
    TableCaches& tc = caches();
    const common::MutexLock lock(tc.mutex);
    for (const MagnitudeCacheEntry& e : tc.magnitude) {
      if (e.magnitude == magnitude && e.cfg == cfg) return e.table;
    }
  }
  // Build outside the lock (the fill is the expensive part).
  const auto model = get_multiplier(cfg);
  // Operand magnitudes of a w-bit signed multiplier span [0, 2^(w-1)]
  // (the upper bound is the magnitude of the most negative value).
  const std::size_t n = (std::size_t{1} << (cfg.width - 1)) + 1;
  auto table = std::make_shared<TableVec>(n);
  for (std::size_t m = 0; m < n; ++m) {
    // Same operand order as multiply_signed(c, x): the coefficient drives
    // the A port. Approximate arrays are not commutative, so this matters.
    (*table)[m] = static_cast<i64>(model->multiply_u(magnitude, static_cast<u64>(m)));
  }
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  tc.magnitude.push_back(MagnitudeCacheEntry{cfg, magnitude, table});
  ++tc.magnitude_builds;
  return table;
}

}  // namespace

std::shared_ptr<const TableVec> peek_signed_coeff_products(
    const MultiplierConfig& cfg, i64 coeff) noexcept {
  const i64 sc = sign_extend(to_unsigned_bits(coeff, cfg.width), cfg.width);
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  for (const SignedCacheEntry& e : tc.signed_coeff) {
    if (e.coeff == sc && e.cfg == cfg) return e.table;
  }
  return nullptr;
}

std::shared_ptr<const TableVec> get_signed_coeff_products(const MultiplierConfig& cfg,
                                                          i64 coeff) {
  if (auto warm = peek_signed_coeff_products(cfg, coeff)) return warm;
  const int w = cfg.width;
  const i64 sc = sign_extend(to_unsigned_bits(coeff, w), w);
  const bool neg = sc < 0;
  const u64 mag = neg ? static_cast<u64>(-sc) : static_cast<u64>(sc);
  // Derive the full signed table from the magnitude row: one load and one
  // conditional negate per entry — cheap next to the row's multiply_u fill,
  // and bit-identical to mul1(c, x) by the sign-magnitude wrapper identity.
  const auto row = get_magnitude_products(cfg, mag);
  const std::size_t n = std::size_t{1} << w;
  auto table = std::make_shared<TableVec>(n);
  for (std::size_t u = 0; u < n; ++u) {
    const i64 sx = sign_extend(static_cast<u64>(u), w);
    const u64 mx = sx < 0 ? static_cast<u64>(-sx) : static_cast<u64>(sx);
    const i64 p = (*row)[mx];
    (*table)[u] = (neg != (sx < 0)) ? -p : p;
  }
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  tc.signed_coeff.push_back(SignedCacheEntry{cfg, sc, table});
  ++tc.signed_builds;
  return table;
}

std::shared_ptr<const TableVec> peek_square_products(
    const MultiplierConfig& cfg) noexcept {
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  for (const SquareCacheEntry& e : tc.square) {
    if (e.cfg == cfg) return e.table;
  }
  return nullptr;
}

std::shared_ptr<const TableVec> get_square_products(const MultiplierConfig& cfg) {
  if (auto warm = peek_square_products(cfg)) return warm;
  const auto model = get_multiplier(cfg);
  const int w = cfg.width;
  // Square diagonal per magnitude, then spread over both sign halves: the
  // sign-magnitude wrapper makes mul1(x, x) = +multiply_u(|x|, |x|) always.
  const std::size_t half = (std::size_t{1} << (w - 1)) + 1;
  std::vector<i64> diag(half);
  for (std::size_t m = 0; m < half; ++m) {
    diag[m] =
        static_cast<i64>(model->multiply_u(static_cast<u64>(m), static_cast<u64>(m)));
  }
  const std::size_t n = std::size_t{1} << w;
  auto table = std::make_shared<TableVec>(n);
  for (std::size_t u = 0; u < n; ++u) {
    const i64 sx = sign_extend(static_cast<u64>(u), w);
    const u64 mx = sx < 0 ? static_cast<u64>(-sx) : static_cast<u64>(sx);
    (*table)[u] = diag[mx];
  }
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  tc.square.push_back(SquareCacheEntry{cfg, table});
  ++tc.square_builds;
  return table;
}

TableCacheStats table_cache_stats() noexcept {
  TableCacheStats s;
  s.multiplier_models = multiplier_model_builds();
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  s.magnitude_tables = tc.magnitude_builds;
  s.signed_tables = tc.signed_builds;
  s.square_tables = tc.square_builds;
  return s;
}

}  // namespace xbs::arith
