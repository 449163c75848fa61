/// \file multiplier.hpp
/// \brief Bit-accurate recursive approximate multiplier (paper Fig. 7).
#pragma once

#include <memory>
#include <vector>

#include "xbs/arith/rca.hpp"
#include "xbs/arith/structure.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Configuration of a width x width recursive multiplier with k approximated
/// LSBs. The k LSB rule selects both which elementary 2x2 modules use the
/// approximate \p mult_kind (per \p policy) and which full adders of the
/// partial-product accumulation tree use the approximate \p adder_kind
/// (absolute output weight < k).
struct MultiplierConfig {
  int width = 16;                          ///< operand width (power of two, 2..32)
  int approx_lsbs = 0;                     ///< k: approximated output LSBs
  AdderKind adder_kind = AdderKind::Accurate;
  MultKind mult_kind = MultKind::Accurate;
  ApproxPolicy policy = ApproxPolicy::Moderate;

  friend constexpr bool operator==(const MultiplierConfig&, const MultiplierConfig&) = default;
};

/// Behavioural model of the recursive array multiplier.
///
/// Evaluation is bit-identical to simulating the module-level netlist
/// (cross-validated in tests) but memoizes the 4x4 and 8x8 sub-multiplier
/// functions in lookup tables, each level filled from the one below, and
/// evaluates the partial-product adds in closed form (no adder object and no
/// full-adder walk per add). A 16x16 multiply is four 8x8 lookups plus three
/// 32-bit adds; a 32x32 one combines four 16x16 products with 64-bit adds.
class RecursiveMultiplier {
 public:
  explicit RecursiveMultiplier(const MultiplierConfig& cfg);

  [[nodiscard]] const MultiplierConfig& config() const noexcept { return cfg_; }

  /// Unsigned multiply of the low `width` bits of a and b; result is the
  /// 2*width-bit product of the (approximate) array.
  [[nodiscard]] u64 multiply_u(u64 a, u64 b) const noexcept;

  /// Signed multiply via the sign-magnitude wrapper the paper's RTL uses
  /// around the unsigned array (operands truncated to `width`-bit signed).
  [[nodiscard]] i64 multiply_signed(i64 a, i64 b) const noexcept;

 private:
  /// Elementary 2x2 product of the module whose output starts at \p base.
  [[nodiscard]] u64 elem(u64 a, u64 b, int base) const noexcept;

  /// The n x n product of the sub-multiplier at base weight \p base, from
  /// its four h x h sub-products (h = n / 2), each evaluated by
  /// \p sub(x, y, base).
  template <class Sub>
  [[nodiscard]] u64 product(int n, u64 a, u64 b, int base, const Sub& sub) const noexcept;

  /// Combine four sub-products with three 2n-bit adders at weight offset
  /// \p base (P = LL + ((HL + LH) << h) + (HH << n)).
  [[nodiscard]] u64 combine(int n, u64 ll, u64 hl, u64 lh, u64 hh, int base) const noexcept;

  /// Memoized 4x4 / 8x8 sub-products at base weight \p base.
  [[nodiscard]] u64 lut4(u64 a, u64 b, int base) const noexcept {
    return lut4_by_base_[static_cast<std::size_t>(base)][(a << 4) | b];
  }
  [[nodiscard]] u64 lut8(u64 a, u64 b, int base) const noexcept {
    return lut8_by_base_[static_cast<std::size_t>(base)][(a << 8) | b];
  }

  MultiplierConfig cfg_;
  // Memoized sub-multiplier functions keyed by base weight offset
  // (off_a + off_b); behaviour depends on offsets only through the base.
  // Base offsets are small and dense (0..2*width in steps of the sub size),
  // so lookup is a direct index into a per-base pointer array instead of a
  // linear scan — one load on the multiply hot path.
  std::vector<std::vector<u8>> lut4_tables_;   // 256 entries each
  std::vector<std::vector<u16>> lut8_tables_;  // 65536 entries each
  std::vector<const u8*> lut4_by_base_;        // index = base, nullptr = none
  std::vector<const u16*> lut8_by_base_;
};

/// The process-wide behavioural model of a configuration: exploration
/// sweeps re-use configurations heavily, and each model owns non-trivial
/// lookup tables. Thread-safe: the table store's common::Memo builds a cold
/// model outside its lock and publishes it insert-if-absent, so threads
/// racing on one cold config all receive the same model.
[[nodiscard]] std::shared_ptr<const RecursiveMultiplier> get_multiplier(
    const MultiplierConfig& cfg);

}  // namespace xbs::arith
