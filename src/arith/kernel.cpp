#include "xbs/arith/kernel.hpp"

#include <algorithm>

#include "xbs/arith/isa.hpp"
#include "xbs/common/bitops.hpp"

namespace xbs::arith {
namespace {

#if defined(_MSC_VER)
#define XBS_RESTRICT __restrict
#else
#define XBS_RESTRICT __restrict__
#endif

/// The exact adder's result: the low 32 bits, sign-extended (a cast through
/// u32/i32, so a wrap is never a signed overflow).
constexpr i64 wrap32(i64 v) noexcept {
  return static_cast<i32>(static_cast<u32>(v));
}

/// The exact multiplier's operand: the low 16 bits, sign-extended.
constexpr i64 sext16(i64 v) noexcept {
  return static_cast<i16>(static_cast<u16>(v));
}

/// Operands per unwrapped stretch of the exact running sums: short enough
/// that no i64 partial sum can overflow, long enough that the wrap is off the
/// per-sample dependency chain.
constexpr std::size_t kWrapBlock = std::size_t{1} << 16;

}  // namespace

// ----------------------------------------------------------------- ExactKernel

// The exact loops avoid per-element helper calls: truncate-then-sign-extend
// of the low 32 (16) bits is exactly a cast through i32 (i16) in C++20
// two's-complement arithmetic, which the compiler auto-vectorizes.

void ExactKernel::square_n_impl(std::span<const i64> x, std::span<i64> out) {
  const i64* px = x.data();
  i64* po = out.data();  // may alias px element-wise (kernel contract)
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) po[i] = sext16(px[i]) * sext16(px[i]);
}

void ExactKernel::window_sum_n_impl(std::size_t w, std::span<const i64> padded,
                                    std::span<i64> out) {
  // A running sum mod 2^32: slide the window by adding the newest operand
  // and dropping the oldest (each step moves the sum by less than 2^32). The
  // sum runs unwrapped within blocks of 2^16 outputs (|s| < 2^49 there) and
  // wraps once per block, so each step is one add.
  const std::size_t n = out.size();
  if (n == 0) return;
  if (w == 1) {  // no adder: the tree's lone term passes through untouched
    std::copy_n(padded.begin(), n, out.begin());
    return;
  }
  const i64* XBS_RESTRICT p = padded.data();
  i64* XBS_RESTRICT po = out.data();
  i64 s = 0;
  for (std::size_t k = 0; k < w; ++k) s = wrap32(s + wrap32(p[k]));
  po[0] = s;
  for (std::size_t b = 1; b < n; b += kWrapBlock) {
    const std::size_t end = std::min(n, b + kWrapBlock);
    for (std::size_t i = b; i < end; ++i) {
      s += wrap32(p[i + w - 1]) - wrap32(p[i - 1]);
      po[i] = wrap32(s);
    }
    s = wrap32(s);
  }
}

ExactKernel::DiffForm& ExactKernel::diff_form(std::span<const int> taps) {
  DiffForm& f = form_;
  if (std::equal(taps.begin(), taps.end(), f.taps.begin(), f.taps.end())) return f;
  f.taps.assign(taps.begin(), taps.end());
  // The coefficients as the 16-bit multiplier sees them, then successive
  // differences e_d[k] = e_{d-1}[k] - e_{d-1}[k-1] (one entry longer per
  // order). Cost of order d: its non-zero terms plus d sequential prefix
  // passes; ties keep the lower order. |e_2[k]| <= 4 * 2^15.
  std::vector<i64> e(taps.size());
  for (std::size_t j = 0; j < taps.size(); ++j) e[j] = sext16(taps[j]);
  auto nonzero = [](const std::vector<i64>& v) {
    std::size_t k = 0;
    for (const i64 c : v) k += (c != 0);
    return k;
  };
  std::vector<i64> best = e;
  std::size_t best_cost = nonzero(e);
  f.order = 0;
  for (std::size_t d = 1; d <= 2; ++d) {
    e.push_back(0);
    for (std::size_t k = e.size() - 1; k > 0; --k) e[k] -= e[k - 1];
    if (nonzero(e) + d < best_cost) {
      best = e;
      best_cost = nonzero(e) + d;
      f.order = d;
    }
  }
  f.terms.clear();
  for (std::size_t k = 0; k < best.size(); ++k) {
    if (best[k] != 0) f.terms.push_back(DiffTerm{k, best[k]});
  }
  return f;
}

void ExactKernel::fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                             std::span<i64> acc) {
  DiffForm& f = diff_form(taps);
  const std::size_t n = acc.size();
  if (f.terms.empty()) {  // every coefficient is 0 in 16 bits: so is every product
    std::fill(acc.begin(), acc.end(), i64{0});
    return;
  }
  // Output i sits at window position T-1+i; term (k, e_k) reads X[T-1+i-k].
  // Operand is the type X and e fit in: for d = 0 both are 16-bit values
  // (the coefficients as the multiplier sees them, and the operands read in
  // place), so the products are widening 16x16 multiplies; otherwise X is a
  // 32-bit prefix sum and |e_k * X| <= 2^17 * 2^31, exact in i64 before its
  // wrap.
  const std::size_t last = taps.size() - 1;
  i64* XBS_RESTRICT pa = acc.data();
  const auto apply = [&](const i64* x, auto operand) {
    using Operand = decltype(operand);
    const DiffTerm& t0 = f.terms.front();
    const i64 c0 = static_cast<Operand>(t0.coeff);
    const i64* src = x + last - t0.offset;
    for (std::size_t i = 0; i < n; ++i) pa[i] = wrap32(c0 * static_cast<Operand>(src[i]));
    for (std::size_t j = 1; j < f.terms.size(); ++j) {
      const DiffTerm& t = f.terms[j];
      const i64 c = static_cast<Operand>(t.coeff);
      src = x + last - t.offset;
      for (std::size_t i = 0; i < n; ++i) pa[i] = wrap32(pa[i] + c * static_cast<Operand>(src[i]));
    }
  };
  const std::size_t d = f.order;
  if (d == 0) {  // the 0-fold prefix sums are the 16-bit operands themselves
    apply(padded.data(), i16{});
    return;
  }
  // d-fold prefix sums of the 16-bit operands over the padded window, behind
  // d zeros (the sums before the window starts): X[t] = pb[t], pb[-1] = 0.
  // Applying e to them restores the convolution exactly from output 0 on,
  // since output i reads operands at window positions >= i only. The sums
  // run unwrapped within blocks of 2^16 operands (|X_1| < 2^32 and
  // |X_2| < 2^49 there) and wrap once per block, so each step is one add.
  const std::size_t len = padded.size();
  f.prefix.resize(d + len);
  std::fill_n(f.prefix.begin(), d, i64{0});
  i64* XBS_RESTRICT pb = f.prefix.data() + d;
  const i64* XBS_RESTRICT px = padded.data();
  i64 s1 = 0;
  i64 s2 = 0;
  for (std::size_t b = 0; b < len; b += kWrapBlock) {
    const std::size_t end = std::min(len, b + kWrapBlock);
    if (d == 1) {
      for (std::size_t t = b; t < end; ++t) {
        s1 += sext16(px[t]);
        pb[t] = wrap32(s1);
      }
    } else {  // d == 2: both passes in one sweep
      for (std::size_t t = b; t < end; ++t) {
        s1 += sext16(px[t]);
        s2 += s1;
        pb[t] = wrap32(s2);
      }
    }
    s1 = wrap32(s1);
    s2 = wrap32(s2);
  }
  apply(pb, i64{});
}

// ---------------------------------------------------------------- ApproxKernel

ApproxKernel::ApproxKernel(const StageArithConfig& cfg) : cfg_(cfg), adder_(cfg.adder) {
  // Decode the adder once: the carry-free mirror adders take the dispatched
  // wired-add loop (see wired_). Positions below `approx_bits` are
  // approximate.
  const AdderConfig& add = cfg.adder;
  const int approx_bits = std::clamp(add.approx_lsbs - add.weight_offset, 0, add.width);
  const bool wired = add.kind == AdderKind::Approx5 || add.kind == AdderKind::Approx4;
  if (wired && approx_bits > 0 && add.width <= 63) {
    wired_ = WiredAddParams{add.width, approx_bits, add.kind == AdderKind::Approx5};
  }
}

// The batched loop bodies live behind the runtime ISA dispatch (isa.hpp):
// one atomic table-pointer load per *_n call selects the tier, every one
// bit-identical to the adder's closed form (asserted per forced ISA in
// tests/test_kernel_dispatch.cpp).

void ApproxKernel::add_n(std::span<const i64> a, std::span<const i64> b, std::span<i64> out) {
  const std::size_t n = out.size();
  if (wired_) {
    kernel_ops().wired_add_n(a.data(), b.data(), out.data(), n, *wired_);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = adder_.add_signed(a[i], b[i]);
}

ApproxKernel::FirPlan& ApproxKernel::fir_plan(std::span<const int> taps) {
  FirPlan& p = plan_;
  if (std::equal(taps.begin(), taps.end(), p.taps.begin(), p.taps.end())) return p;
  p.taps.clear();  // the plan matches no tap set until it is complete
  p.tables.clear();
  p.chain.clear();
  std::vector<int> distinct;
  for (std::size_t j = 0; j < taps.size(); ++j) {
    const int c = taps[j];
    if (c == 0) continue;
    const auto it = std::find(distinct.begin(), distinct.end(), c);
    p.chain.push_back(PlanTap{static_cast<std::size_t>(it - distinct.begin()),
                              taps.size() - 1 - j});
    if (it == distinct.end()) {
      distinct.push_back(c);
      p.tables.push_back(get_signed_coeff_products(cfg_.mult, c));
    }
  }
  p.rows.resize(p.tables.size());
  p.taps.assign(taps.begin(), taps.end());
  return p;
}

void ApproxKernel::fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                              std::span<i64> acc) {
  // Product rows: the tap loop re-reads the same input samples once per tap,
  // so gather the signed products P_c[x] once per *distinct* coefficient over
  // the whole padded window and reduce the tap loop to adds over shifted row
  // views. Bit-identical to the chain acc = add(acc, mul(c_j, x_j)): the
  // products are the table loads of the multiplier's products, the adds are
  // the adder's, in tap order with the accumulator on the A port.
  FirPlan& p = fir_plan(taps);
  if (p.chain.empty()) {
    std::fill(acc.begin(), acc.end(), i64{0});
    return;
  }
  const u64 mmask = low_mask(cfg_.mult.width);
  const KernelOps& ops = kernel_ops();
  for (std::size_t r = 0; r < p.tables.size(); ++r) {
    std::vector<i64>& row = p.rows[r];
    row.resize(padded.size());
    ops.gather_lut_n(p.tables[r]->data(), mmask, padded.data(), row.data(), padded.size());
  }
  const auto view = [&](const PlanTap& tap) {
    return std::span<const i64>(p.rows[tap.row]).subspan(tap.offset, acc.size());
  };
  const std::span<const i64> first = view(p.chain.front());
  std::copy(first.begin(), first.end(), acc.begin());
  // In-place accumulate (out aliases a element-wise — add_n's contract).
  for (std::size_t k = 1; k < p.chain.size(); ++k) add_n(acc, view(p.chain[k]), acc);
}

void ApproxKernel::square_n_impl(std::span<const i64> x, std::span<i64> out) {
  // One masked (per-lane gathered) load per sample from the per-config
  // square table. Full in-place aliasing is fine: out[i] is written strictly
  // after x[i] is read.
  if (square_ == nullptr) square_ = get_square_products(cfg_.mult);
  kernel_ops().gather_lut_n(square_->data(), low_mask(cfg_.mult.width), x.data(), out.data(),
                            out.size());
}

void ApproxKernel::window_sum_n_impl(std::size_t w, std::span<const i64> padded,
                                     std::span<i64> out) {
  // The balanced pairwise tree of netlist::build_mwi_stage, one add_n per
  // pair per level. Terms are spans over the padded input (level 0,
  // leftovers) or level outputs from the scratch pool; the root's add writes
  // straight into `out`.
  const std::size_t n = out.size();
  if (w == 1) {
    std::copy_n(padded.begin(), n, out.begin());
    return;
  }
  tree_.terms.clear();
  for (std::size_t k = 0; k < w; ++k) tree_.terms.push_back(padded.subspan(k, n));
  std::size_t parity = 0;
  while (tree_.terms.size() > 2) {
    const std::vector<std::span<const i64>>& terms = tree_.terms;
    std::vector<std::vector<i64>>& pool = tree_.pool[parity];
    tree_.next.clear();
    std::size_t used = 0;  // recycle this parity's buffers (written two levels up)
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      if (used == pool.size()) pool.emplace_back();
      std::vector<i64>& buf = pool[used++];
      buf.resize(n);
      add_n(terms[i], terms[i + 1], buf);
      tree_.next.push_back(buf);
    }
    if (terms.size() % 2 == 1) tree_.next.push_back(terms.back());
    tree_.terms.swap(tree_.next);
    parity ^= 1;
  }
  add_n(tree_.terms[0], tree_.terms[1], out);
}

// -------------------------------------------------------------------- factory

std::unique_ptr<Kernel> make_kernel(const StageArithConfig& cfg) {
  if (cfg.is_exact()) return std::make_unique<ExactKernel>();
  return std::make_unique<ApproxKernel>(cfg);
}

}  // namespace xbs::arith
