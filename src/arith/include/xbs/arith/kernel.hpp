/// \file kernel.hpp
/// \brief Batched arithmetic kernels — the datapath every Pan-Tompkins stage
/// runs on.
///
/// A Kernel evaluates whole signal blocks: config decoding, lookup-table
/// resolution and operation counting happen once per `*_n` call, and the
/// inner loops are tight non-virtual code. Two backends serve every stage
/// configuration: the exact native datapath and the bit-accurate approximate
/// one. The per-sample scalar datapath they are checked against is the test
/// oracle in tests/scalar_unit.hpp (asserted in
/// tests/test_kernel_equivalence).
///
/// Operand convention: every value is a sign-extended signed 64-bit integer
/// carrying the block's `width`-bit two's-complement result. Adds model the
/// 32-bit adder block; multiplies model the 16x16 signed multiplier block.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/common/aligned.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Storage of the process-wide product/square tables: cache-line aligned so
/// per-lane gathers (isa.hpp) start on a 64-byte boundary and the table head
/// never false-shares with neighbouring allocations.
using TableVec = std::vector<i64, AlignedAllocator<i64, 64>>;

/// Datapath operation counters (reset between runs to attribute operations
/// to stages).
struct OpCounts {
  u64 adds = 0;
  u64 mults = 0;

  constexpr OpCounts& operator+=(OpCounts o) noexcept {
    adds += o.adds;
    mults += o.mults;
    return *this;
  }
  friend constexpr OpCounts operator+(OpCounts a, OpCounts b) noexcept { return a += b; }
  friend constexpr bool operator==(OpCounts, OpCounts) = default;
};

/// Arithmetic configuration of one application stage: a 32-bit adder block
/// and a 16x16 multiplier block sharing the same number of approximated LSBs,
/// mirroring how the paper configures each stage with a single (LSB, Add,
/// Mult) triple.
struct StageArithConfig {
  AdderConfig adder{32, 0, AdderKind::Accurate, 0};
  MultiplierConfig mult{16, 0, AdderKind::Accurate, MultKind::Accurate,
                        ApproxPolicy::Moderate};

  /// Uniform configuration: k LSBs approximated in both blocks.
  [[nodiscard]] static StageArithConfig uniform(
      int approx_lsbs, AdderKind add_kind = AdderKind::Approx5,
      MultKind mult_kind = MultKind::V1,
      ApproxPolicy policy = ApproxPolicy::Moderate) noexcept {
    StageArithConfig c;
    c.adder = AdderConfig{32, approx_lsbs, add_kind, 0};
    c.mult = MultiplierConfig{16, approx_lsbs, add_kind, mult_kind, policy};
    return c;
  }

  /// True when this configuration is exactly the accurate native datapath.
  [[nodiscard]] constexpr bool is_exact() const noexcept {
    return adder.approx_lsbs == 0 && mult.approx_lsbs == 0;
  }

  friend constexpr bool operator==(const StageArithConfig&, const StageArithConfig&) = default;
};

/// Block-granular datapath. The public counted ops are the three the
/// Pan-Tompkins stages issue — fir_n (LPF, HPF, DER), square_n (SQR) and
/// window_sum_n (MWI). Each counts the hardware datapath's operations once
/// per block and dispatches a single virtual call; the backends' `*_impl`
/// hooks run the tight loops. Below, add(a, b) is one 32-bit adder-block add
/// and mul(a, b) one 16x16 multiplier-block product of the stage's
/// configuration.
///
/// A kernel is single-consumer: its op counters, scratch and per-tap-set
/// plans are plain members, so give each stage of each session its own.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Whole FIR convolution over a history-prefixed input: with T = taps.size()
  /// and n = acc.size(), `padded` holds T-1 carried samples followed by the n
  /// new ones (padded.size() == n + T - 1), and tap j of output i reads
  /// padded[T-1-j+i]. Per output sample the non-zero taps are multiplied in
  /// tap order and accumulated through the chain acc = add(acc, mul(c_j, x_j))
  /// (the coefficient on the multiplier's A port, the accumulator on the
  /// adder's — approximate units are not commutative), counted as n
  /// multiplies per non-zero tap and n adds per accumulation. \p padded must
  /// not alias \p acc.
  void fir_n(std::span<const int> taps, std::span<const i64> padded, std::span<i64> acc) {
    std::size_t nonzero = 0;
    for (const int c : taps) nonzero += (c != 0);
    counts_.mults += acc.size() * nonzero;
    counts_.adds += acc.size() * (nonzero > 0 ? nonzero - 1 : 0);
    fir_n_impl(taps, padded, acc);
  }

  /// out[i] = mul(x[i], x[i]) — the squarer. \p out may alias \p x
  /// (the SQR stage squares in place): out[i] is written after x[i] is read.
  void square_n(std::span<const i64> x, std::span<i64> out) {
    counts_.mults += out.size();
    square_n_impl(x, out);
  }

  /// Sliding-window sum over a history-prefixed input — the MWI adder tree.
  /// With n = out.size(), `padded` holds w-1 carried samples followed by the
  /// n new ones (padded.size() == n + w - 1), and out[i] sums the window
  /// padded[i .. i+w-1] through the balanced pairwise tree of
  /// netlist::build_mwi_stage: each level adds adjacent terms in pairs,
  /// oldest first, and carries an odd leftover to the end of the next level.
  /// Counted as the tree's w-1 adds per output. An approximate adder needs
  /// that exact tree — its adds are not associative; a backend whose add is
  /// associative may evaluate the same sum in any order.
  /// Requires w >= 1; \p padded must not alias \p out.
  void window_sum_n(std::size_t w, std::span<const i64> padded, std::span<i64> out) {
    counts_.adds += out.size() * (w - 1);
    window_sum_n_impl(w, padded, out);
  }

  [[nodiscard]] const OpCounts& counts() const noexcept { return counts_; }
  void reset_counts() noexcept { counts_ = OpCounts{}; }

 protected:
  virtual void fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                          std::span<i64> acc) = 0;
  virtual void square_n_impl(std::span<const i64> x, std::span<i64> out) = 0;
  virtual void window_sum_n_impl(std::size_t w, std::span<const i64> padded,
                                 std::span<i64> out) = 0;

 private:
  OpCounts counts_;
};

/// Exact native backend (the golden reference datapath): 32-bit wrapping
/// adds, sign-extended 16x16 multiplies, all in tight native loops.
///
/// Why fir_n and window_sum_n may skip the hardware's evaluation order: the
/// exact chain computes sum_j sext16(c_j) * sext16(x_j) mod 2^32,
/// sign-extended (mul is an exact 16x16 product, add wraps at 32 bits), and
/// the exact MWI tree computes sum_k x_k mod 2^32. Z/2^32 is a ring, so any
/// evaluation of the same linear form mod 2^32 yields the same bits for
/// every input — operands outside 16 (32) bits are truncated exactly as mul
/// (add) truncates them, and intermediate wraps cancel. So:
///  - window_sum_n is a running sum mod 2^32: one add per output instead of
///    a w-1 add tree;
///  - fir_n evaluates the tap set in its sparsest difference form: the d-th
///    difference e of the 16-bit coefficients (d in {0, 1, 2}, minimising
///    non-zero entries plus d prefix passes) applied to the d-fold prefix
///    sums of the 16-bit operands over the padded window. For the LPF taps
///    this is the published recursive low-pass (d = 2, e = 1, -2, 1 at
///    offsets 0, 6, 12), for the HPF taps the recursive high-pass (d = 1,
///    e = -1, 32, -32, 1 at 0, 16, 17, 32); for the DER taps d = 0, whose
///    0-fold prefix is just the 16-bit operands, i.e. the tap chain itself.
///    The form is derived once per tap set (each kernel serves one stage).
/// The OpCounts are unchanged: they count the hardware datapath's
/// operations (the public wrappers count before dispatch), not the
/// software evaluation's.
class ExactKernel final : public Kernel {
 protected:
  void fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                  std::span<i64> acc) override;
  void square_n_impl(std::span<const i64> x, std::span<i64> out) override;
  void window_sum_n_impl(std::size_t w, std::span<const i64> padded,
                         std::span<i64> out) override;

 private:
  /// One non-zero entry e_k of a tap set's difference form.
  struct DiffTerm {
    std::size_t offset = 0;  ///< k: the term reads the prefix sums k samples back
    i64 coeff = 0;           ///< e_k
  };
  /// fir_n's evaluation plan for the last tap set seen, and its scratch
  /// (reused across chunks).
  struct DiffForm {
    std::vector<int> taps;  ///< the tap set the form was derived from
    std::size_t order = 0;  ///< d: the number of prefix-sum passes
    std::vector<DiffTerm> terms;
    std::vector<i64> prefix;  ///< d zeros, then the d-fold prefix sums
  };
  /// The form of \p taps, derived on first use of that tap set.
  DiffForm& diff_form(std::span<const int> taps);
  DiffForm form_;
};

/// Bit-accurate approximate backend for one stage configuration, compiled
/// into branch-free table-driven inner loops.
///
/// Hoisted out of the inner loops, once per kernel lifetime: the
/// ripple-carry adder model (config decode + approx-region clamp). On first
/// use, at any block size:
///  - fir_n derives one plan per tap set, resolving a full *signed* product
///    table `P[u] = mul(c, sign_extend(u, w))` for each distinct non-zero
///    coefficient. Each call then gathers one product row per distinct
///    coefficient over the padded window and accumulates the taps' shifted
///    row views in tap order, the accumulator on the adder's A port —
///    exactly the chain's table loads and adds, with no multiplier
///    simulation in the loop;
///  - square_n resolves the per-config square table (`S[u] = mul(x, x)`),
///    one masked load per sample;
///  - window_sum_n evaluates the MWI tree level by level, one batched add
///    per pair of terms.
/// The table walks and the AMA4/AMA5 wired-add loop run through the
/// runtime-dispatched tier (isa.hpp): one wired-add source that each tier
/// compiles under its own flags (4/8 lanes on AVX2/AVX-512 hardware), and
/// `vpgatherqq` table walks on those tiers — every tier bit-identical to the
/// adder model by construction. Tables live in the process-wide
/// table store next to the get_multiplier() models, keyed by
/// (MultiplierConfig, coefficient): each kind is a common::Memo, internally
/// synchronized with immutable published tables, so kernels in different
/// threads (one per stream::Session) share them safely.
class ApproxKernel final : public Kernel {
 public:
  explicit ApproxKernel(const StageArithConfig& cfg);

 protected:
  void fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                  std::span<i64> acc) override;
  void square_n_impl(std::span<const i64> x, std::span<i64> out) override;
  void window_sum_n_impl(std::size_t w, std::span<const i64> padded,
                         std::span<i64> out) override;

 private:
  /// out[i] = add(a[i], b[i]): one adder level of the FIR chain or the MWI
  /// tree (uncounted — the public ops count). \p out may alias \p a or \p b
  /// element-wise.
  void add_n(std::span<const i64> a, std::span<const i64> b, std::span<i64> out);

  /// One non-zero tap of a plan: where its products sit in its row.
  struct PlanTap {
    std::size_t row = 0;     ///< index into FirPlan::tables / rows
    std::size_t offset = 0;  ///< T-1-j: tap j of output i reads row[offset + i]
  };
  /// fir_n's evaluation plan for the last tap set seen, and its scratch
  /// (reused across chunks).
  struct FirPlan {
    std::vector<int> taps;  ///< the tap set the plan was derived from
    /// The signed product table of each distinct non-zero coefficient, in
    /// first-seen tap order.
    std::vector<std::shared_ptr<const TableVec>> tables;
    std::vector<PlanTap> chain;          ///< the non-zero taps, in tap order
    std::vector<std::vector<i64>> rows;  ///< one product row per table
  };
  /// The plan of \p taps, derived (and its tables built) on first use of
  /// that tap set.
  FirPlan& fir_plan(std::span<const int> taps);

  StageArithConfig cfg_;
  RippleCarryAdder adder_;
  /// The batched adds' wired-add parameters, decoded once at construction.
  /// Engaged exactly when the adder is AMA5 (Sum=B, Cout=A) or AMA4
  /// (Sum=NOT A, Cout=A) with approximate bits and width <= 63: those have
  /// no carry chain through the approximated LSBs, so the dispatched tier
  /// evaluates them as masks plus one native add. Every other adder runs
  /// RippleCarryAdder's closed form per element.
  std::optional<WiredAddParams> wired_;
  FirPlan plan_;
  std::shared_ptr<const TableVec> square_;  ///< resolved on first square_n
  /// window_sum_n scratch of the tree (reused across chunks). Level outputs
  /// ping-pong between the two pools by level parity, so a level recycles
  /// its grandparent level's buffers: levels strictly shrink, and a carried
  /// odd leftover always has the highest index of its parity, so it is never
  /// overwritten before its last read. `terms`/`next` hold the current
  /// level's operands.
  struct TreeScratch {
    std::array<std::vector<std::vector<i64>>, 2> pool;
    std::vector<std::span<const i64>> terms;
    std::vector<std::span<const i64>> next;
  };
  TreeScratch tree_;
};

/// Build the right backend for a stage configuration: the exact native kernel
/// when the configuration is accurate, the bit-accurate approximate kernel
/// otherwise.
[[nodiscard]] std::unique_ptr<Kernel> make_kernel(const StageArithConfig& cfg);

/// The process-wide full signed per-coefficient product table (see
/// ApproxKernel), from the table store's memo: 2^width entries,
/// `P[u] = multiply_signed(c, sign_extend(u, w))` of the configuration's
/// get_multiplier() model.
/// A kernel calls it the first time it sees a coefficient; serving layers
/// reach it through pantompkins::warm_stage_tables to build outside timed
/// regions.
[[nodiscard]] std::shared_ptr<const TableVec> get_signed_coeff_products(
    const MultiplierConfig& cfg, i64 coeff);

/// The process-wide per-config square table, from the table store's memo:
/// 2^width entries, `S[u] = multiply_signed(x, x)` for
/// `x = sign_extend(u, w)` — the SQR-stage kernel.
[[nodiscard]] std::shared_ptr<const TableVec> get_square_products(
    const MultiplierConfig& cfg);

/// Cumulative build counters of the table store's four memos (the
/// multiplier behavioural models and the three table kinds) — each counts
/// published cold builds, not hits (a racing builder's discarded duplicate
/// is not counted).
/// Serving layers warm tables outside their latency-sensitive regions; tests
/// snapshot these counters around a streaming run to prove nothing is built
/// lazily on the hot path (tests/test_kernel_dispatch.cpp).
struct TableCacheStats {
  u64 multiplier_models = 0;  ///< RecursiveMultiplier behavioural models
  u64 magnitude_tables = 0;   ///< magnitude-indexed product rows
  u64 signed_tables = 0;      ///< full signed per-coefficient tables
  u64 square_tables = 0;      ///< per-config square tables

  friend constexpr bool operator==(const TableCacheStats&,
                                   const TableCacheStats&) = default;
};
[[nodiscard]] TableCacheStats table_cache_stats() noexcept;

}  // namespace xbs::arith
