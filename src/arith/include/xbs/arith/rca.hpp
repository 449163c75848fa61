/// \file rca.hpp
/// \brief Bit-accurate ripple-carry adder with k approximated LSBs (Fig. 6).
#pragma once

#include "xbs/arith/fulladder.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Configuration of an N-bit ripple-carry adder whose k least-significant
/// full adders are replaced by an approximate variant (paper Fig. 6).
struct AdderConfig {
  int width = 32;                         ///< adder width in bits (2..63)
  int approx_lsbs = 0;                    ///< k: number of approximated LSBs
  AdderKind kind = AdderKind::Accurate;   ///< approximate FA variant for the LSBs
  int weight_offset = 0;                  ///< absolute weight of bit 0 (for use
                                          ///< inside multipliers; 0 standalone)

  friend constexpr bool operator==(const AdderConfig&, const AdderConfig&) = default;
};

/// Result of an unsigned addition.
struct AddResult {
  u64 sum = 0;
  bool carry_out = false;

  friend constexpr bool operator==(AddResult, AddResult) = default;
};

/// Behavioural model of the approximate ripple-carry adder.
///
/// Every add is O(1) for every kind: the approximated low region is
/// evaluated in closed form (word-wide carries of one native add for the
/// exact-carry kinds AMA1/AMA2 and for AMA3's simplified carry, plain
/// wiring for AMA4/AMA5) and the accurate high region is one native add —
/// bit-identical to chaining the full-adder truth tables (tests/test_rca.cpp
/// checks every kind, width 2..6, exhaustively against that chain).
class RippleCarryAdder {
 public:
  explicit RippleCarryAdder(const AdderConfig& cfg);

  [[nodiscard]] const AdderConfig& config() const noexcept { return cfg_; }

  /// Unsigned add of the low `width` bits of a and b.
  [[nodiscard]] AddResult add_u(u64 a, u64 b, bool carry_in = false) const noexcept;

  /// Two's-complement signed add: operands are truncated to `width` bits,
  /// added through the (possibly approximate) adder, and the `width`-bit
  /// result is sign-extended back — exactly what the hardware block computes.
  [[nodiscard]] i64 add_signed(i64 a, i64 b) const noexcept;

  /// Two's-complement signed subtract (b negated via one's complement +
  /// carry-in, the standard adder-subtractor datapath).
  [[nodiscard]] i64 sub_signed(i64 a, i64 b) const noexcept;

 private:
  AdderConfig cfg_;
  int approx_in_range_ = 0;  ///< number of low FA positions that are approximate
};

}  // namespace xbs::arith
