/// \file block_cost.hpp
/// \brief Structural (pre-optimization) cost roll-up for composed blocks.
///
/// Costs are computed directly from the structural decomposition shared with
/// the behavioural simulator: an N-bit RCA is N full adders with k of them
/// approximate (Fig. 6); a recursive multiplier is the Fig. 7 tree of
/// elementary 2x2 modules plus three 2N-bit accumulation adders per level.
/// These are the "naive" numbers before synthesis optimization; the netlist
/// library provides post-optimization reports (constant propagation + dead
/// logic elimination), which is what the paper's synthesized designs reflect.
#pragma once

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/hwmodel/cell_library.hpp"

namespace xbs::hwmodel {

/// Cost of an approximate ripple-carry adder block. Delay is the carry-chain
/// delay (sum of per-FA delays).
[[nodiscard]] Cost adder_block_cost(const arith::AdderConfig& cfg);

/// Cost of a recursive multiplier block. Delay is a first-order critical-path
/// model: one elementary module plus the three sequential accumulation adders
/// of every combine level on the base-offset-0 path.
[[nodiscard]] Cost mult_block_cost(const arith::MultiplierConfig& cfg);

/// Cost of an application stage containing \p n_adders 32-bit adder blocks
/// and \p n_mults 16x16 multiplier blocks, all configured per \p cfg.
/// Registers are excluded, as in the paper's analysis.
[[nodiscard]] Cost stage_cost(int n_adders, int n_mults, const arith::StageArithConfig& cfg);

/// Reduction factors of an approximate block vs its accurate counterpart
/// (the paper's "Magnitude Reductions [x1]" axes). A zero-cost approximate
/// metric yields +infinity.
struct Reductions {
  double area = 1.0;
  double delay = 1.0;
  double power = 1.0;
  double energy = 1.0;
};

[[nodiscard]] Reductions reductions(const Cost& accurate, const Cost& approximate) noexcept;

}  // namespace xbs::hwmodel
