#include "xbs/arith/rca.hpp"

#include <algorithm>
#include <stdexcept>

#include "ripple_add.hpp"

namespace xbs::arith {

RippleCarryAdder::RippleCarryAdder(const AdderConfig& cfg) : cfg_(cfg) {
  if (cfg.width < 2 || cfg.width > 63) {
    throw std::invalid_argument("adder width must be in [2, 63]");
  }
  if (cfg.approx_lsbs < 0) throw std::invalid_argument("approx_lsbs must be >= 0");
  // Bit i of this adder has absolute weight weight_offset + i; it is
  // approximate iff that weight is below k (Fig. 6).
  approx_in_range_ = std::clamp(cfg.approx_lsbs - cfg.weight_offset, 0, cfg.width);
}

AddResult RippleCarryAdder::add_u(u64 a, u64 b, bool carry_in) const noexcept {
  return detail::ripple_add(cfg_.kind, cfg_.width, approx_in_range_, a, b, carry_in);
}

i64 RippleCarryAdder::add_signed(i64 a, i64 b) const noexcept {
  const u64 ua = to_unsigned_bits(a, cfg_.width);
  const u64 ub = to_unsigned_bits(b, cfg_.width);
  return sign_extend(add_u(ua, ub).sum, cfg_.width);
}

i64 RippleCarryAdder::sub_signed(i64 a, i64 b) const noexcept {
  const u64 ua = to_unsigned_bits(a, cfg_.width);
  const u64 ub = (~to_unsigned_bits(b, cfg_.width)) & low_mask(cfg_.width);
  return sign_extend(add_u(ua, ub, /*carry_in=*/true).sum, cfg_.width);
}

}  // namespace xbs::arith
