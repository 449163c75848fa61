#include "xbs/arith/multiplier.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ripple_add.hpp"
#include "xbs/arith/mult2x2.hpp"
#include "xbs/common/bitops.hpp"

namespace xbs::arith {
namespace {

/// Distinct base offsets (off_a + off_b) at which sub-multipliers of size
/// \p sub occur inside a width-\p width recursive multiplier.
std::vector<int> sub_bases(int width, int sub) {
  std::vector<int> bases;
  const MultStructure s = compute_mult_structure(width);
  if (sub == 2) {
    for (const auto& e : s.elems) bases.push_back(e.out_offset);
  } else {
    // Sub-multipliers of size `sub` start at offsets that are multiples of
    // `sub` in each operand; their base offsets are the sums.
    for (int oa = 0; oa < width; oa += sub)
      for (int ob = 0; ob < width; ob += sub) bases.push_back(oa + ob);
  }
  std::sort(bases.begin(), bases.end());
  bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
  return bases;
}

}  // namespace

RecursiveMultiplier::RecursiveMultiplier(const MultiplierConfig& cfg) : cfg_(cfg) {
  if (cfg.width < 2 || cfg.width > 32 ||
      !std::has_single_bit(static_cast<unsigned>(cfg.width))) {
    throw std::invalid_argument("multiplier width must be a power of two in [2, 32]");
  }
  if (cfg.approx_lsbs < 0 || cfg.approx_lsbs > 2 * cfg.width) {
    throw std::invalid_argument("approx_lsbs must be in [0, 2*width]");
  }
  // Memoize 4x4 sub-multipliers (and, for width >= 16, 8x8) keyed by base
  // weight offset, each level filled from the one below: the 4x4 tables from
  // the 2x2 elements, the 8x8 tables from the 4x4 tables. Each level's
  // pointer index is published only after all of its tables are built (the
  // table vector must stop reallocating before addresses are taken).
  if (cfg.width >= 4) {
    const std::vector<int> bases = sub_bases(cfg.width, 4);
    const auto sub2 = [this](u64 x, u64 y, int b) { return elem(x, y, b); };
    for (const int base : bases) {
      std::vector<u8>& t = lut4_tables_.emplace_back(256);
      for (u32 a = 0; a < 16; ++a)
        for (u32 b = 0; b < 16; ++b)
          t[(a << 4) | b] = static_cast<u8>(product(4, a, b, base, sub2));
    }
    lut4_by_base_.assign(static_cast<std::size_t>(2 * cfg.width + 1), nullptr);
    for (std::size_t i = 0; i < bases.size(); ++i) {
      lut4_by_base_[static_cast<std::size_t>(bases[i])] = lut4_tables_[i].data();
    }
  }
  if (cfg.width >= 16) {
    const std::vector<int> bases = sub_bases(cfg.width, 8);
    const auto sub4 = [this](u64 x, u64 y, int b) { return lut4(x, y, b); };
    for (const int base : bases) {
      std::vector<u16>& t = lut8_tables_.emplace_back(65536);
      for (u32 a = 0; a < 256; ++a)
        for (u32 b = 0; b < 256; ++b)
          t[(a << 8) | b] = static_cast<u16>(product(8, a, b, base, sub4));
    }
    lut8_by_base_.assign(static_cast<std::size_t>(2 * cfg.width + 1), nullptr);
    for (std::size_t i = 0; i < bases.size(); ++i) {
      lut8_by_base_[static_cast<std::size_t>(bases[i])] = lut8_tables_[i].data();
    }
  }
}

u64 RecursiveMultiplier::elem(u64 a, u64 b, int base) const noexcept {
  const MultKind kind =
      elem_is_approx(cfg_.policy, base, cfg_.approx_lsbs) ? cfg_.mult_kind : MultKind::Accurate;
  return mult2(kind, static_cast<u32>(a), static_cast<u32>(b));
}

template <class Sub>
u64 RecursiveMultiplier::product(int n, u64 a, u64 b, int base, const Sub& sub) const noexcept {
  const int h = n / 2;
  const u64 al = a & low_mask(h), ah = a >> h;
  const u64 bl = b & low_mask(h), bh = b >> h;
  return combine(n, sub(al, bl, base), sub(ah, bl, base + h), sub(al, bh, base + h),
                 sub(ah, bh, base + n), base);
}

u64 RecursiveMultiplier::combine(int n, u64 ll, u64 hl, u64 lh, u64 hh,
                                 int base) const noexcept {
  const int h = n / 2;
  // The 2n-bit adders of this level, decoded: bit j has absolute weight
  // base + j and is approximate iff that weight is below k (Fig. 6).
  const AdderKind kind = cfg_.adder_kind;
  const int w = 2 * n;
  const int approx = std::clamp(cfg_.approx_lsbs - base, 0, w);
  // Operand-port convention: where one operand is structurally zero (the
  // shifted partial products), it is wired to the A port. The zero-cost
  // wiring adder (ApproxAdd5: Sum = B, Cout = A) then passes the live data
  // through and keeps the carry lane constant — the port assignment any RTL
  // designer would pick, and the one the netlist builders mirror.
  const u64 s1 = detail::ripple_add(kind, w, approx, hl << h, lh << h, false).sum;
  const u64 s2 = detail::ripple_add(kind, w, approx, s1, ll, false).sum;
  return detail::ripple_add(kind, w, approx, hh << n, s2, false).sum;
}

u64 RecursiveMultiplier::multiply_u(u64 a, u64 b) const noexcept {
  // From the largest memo tables up: no recursion per product.
  a &= low_mask(cfg_.width);
  b &= low_mask(cfg_.width);
  const auto sub4 = [this](u64 x, u64 y, int base) { return lut4(x, y, base); };
  const auto sub8 = [this](u64 x, u64 y, int base) { return lut8(x, y, base); };
  const auto sub16 = [&](u64 x, u64 y, int base) { return product(16, x, y, base, sub8); };
  switch (cfg_.width) {
    case 2: return elem(a, b, 0);
    case 4: return lut4(a, b, 0);
    case 8: return product(8, a, b, 0, sub4);
    case 16: return product(16, a, b, 0, sub8);
    default: return product(32, a, b, 0, sub16);
  }
}

i64 RecursiveMultiplier::multiply_signed(i64 a, i64 b) const noexcept {
  const i64 sa = sign_extend(to_unsigned_bits(a, cfg_.width), cfg_.width);
  const i64 sb = sign_extend(to_unsigned_bits(b, cfg_.width), cfg_.width);
  const bool neg = (sa < 0) != (sb < 0);
  const u64 ma = static_cast<u64>(sa < 0 ? -sa : sa);
  const u64 mb = static_cast<u64>(sb < 0 ? -sb : sb);
  const u64 p = multiply_u(ma, mb);
  return neg ? -static_cast<i64>(p) : static_cast<i64>(p);
}

}  // namespace xbs::arith
