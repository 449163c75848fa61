/// \file builders.hpp
/// \brief Netlist generators for the paper's hardware blocks (Figs. 6-7) and
/// the FIR application stages.
#pragma once

#include <span>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/netlist/netlist.hpp"

namespace xbs::netlist {

/// Result of building an adder: the sum bus plus the carry-out net.
struct AdderNets {
  std::vector<NetId> sum;
  NetId carry_out = kConst0;
};

/// Build the Fig. 6 ripple-carry adder over existing nets. Buses must both be
/// `cfg.width` wide (LSB first). FA i uses the approximate kind iff its
/// absolute weight (cfg.weight_offset + i) < cfg.approx_lsbs.
AdderNets build_rca(Netlist& nl, const arith::AdderConfig& cfg, std::span<const NetId> a,
                    std::span<const NetId> b, NetId carry_in = kConst0);

/// Build the Fig. 7 recursive multiplier over existing nets; returns the
/// 2*width product bus. Structure and approximation decisions mirror
/// arith::RecursiveMultiplier exactly (cross-validated in tests).
std::vector<NetId> build_multiplier(Netlist& nl, const arith::MultiplierConfig& cfg,
                                    std::span<const NetId> a, std::span<const NetId> b);

/// Specification of one FIR application stage for netlist construction: one
/// 16-bit input bus per tap (the tap-register outputs), a constant
/// coefficient-magnitude per tap feeding a 16x16 multiplier core, and a chain
/// of 32-bit accumulation adders. Sign handling and the output normalization
/// shift are wiring-level (zero-cost) details, and registers are excluded, as
/// in the paper's analysis (see DESIGN.md).
struct FirStageSpec {
  std::vector<u32> coeff_magnitudes;  ///< one per tap; zero taps are skipped
  arith::StageArithConfig arith;
};

/// Build a whole FIR stage; the 32-bit accumulator bus is marked as the
/// primary output. Input buses are created inside (16 bits per non-zero tap).
Netlist build_fir_stage(const FirStageSpec& spec);

/// Build the squarer stage: one 16x16 multiplier with both operand ports fed
/// by the same input bus (y = x * x), so synthesis sees the true x^2 logic.
Netlist build_squarer_stage(const arith::MultiplierConfig& cfg);

/// Build a moving-window-integration stage: a feed-forward tree of
/// `window - 1` adders of width cfg.width summing `window` input buses of
/// \p input_bits live bits (zero-extended). Adder-only, as the paper notes
/// for this stage; \p input_bits reflects the squared-signal word width so
/// dead-logic elimination prices the real live datapath.
Netlist build_mwi_stage(int window, const arith::AdderConfig& cfg, int input_bits = 16);

}  // namespace xbs::netlist
