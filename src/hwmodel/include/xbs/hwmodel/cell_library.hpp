/// \file cell_library.hpp
/// \brief 65 nm cost data of the elementary modules (paper Table 1).
///
/// These numbers stand in for the Synopsys Design Compiler synthesis reports
/// the paper generated for its 65 nm technology library; the paper publishes
/// them verbatim in Table 1, so per-module costs in this reproduction match
/// the paper by construction.
#pragma once

#include "xbs/common/kinds.hpp"

namespace xbs::hwmodel {

/// Synthesis cost of a hardware block (units follow Table 1).
struct Cost {
  double area_um2 = 0.0;
  double delay_ns = 0.0;
  double power_uw = 0.0;
  double energy_fj = 0.0;

  constexpr Cost& operator+=(const Cost& o) noexcept {
    area_um2 += o.area_um2;
    delay_ns += o.delay_ns;
    power_uw += o.power_uw;
    energy_fj += o.energy_fj;
    return *this;
  }
  friend constexpr Cost operator+(Cost a, const Cost& b) noexcept { return a += b; }
  friend constexpr Cost operator*(double s, const Cost& c) noexcept {
    return Cost{s * c.area_um2, s * c.delay_ns, s * c.power_uw, s * c.energy_fj};
  }
  friend constexpr bool operator==(const Cost&, const Cost&) = default;
};

/// Table 1, adder half: per 1-bit full adder.
[[nodiscard]] Cost cell_cost(AdderKind kind) noexcept;

/// Table 1, multiplier half: per elementary 2x2 multiplier.
[[nodiscard]] Cost cell_cost(MultKind kind) noexcept;

}  // namespace xbs::hwmodel
