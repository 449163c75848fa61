/// \file stages.hpp
/// \brief The five Pan-Tompkins application stages as fixed-point datapaths
/// over the batched kernel API, and the integer coefficient sets they run.
///
/// Each stage class is one resumable chunk transform: `process_chunk(x, y)`
/// consumes a chunk of any size, carries its last T-1 (FIR) or w-1 (MWI)
/// inputs across calls as the history prefix of its padded kernel input, and
/// issues one batched kernel call per chunk (fir_n, square_n or
/// window_sum_n); `reset()` returns it to the fresh-record state. Every
/// chunking computes exactly the dataflow graph of the per-sample scalar
/// datapath (same operands, same order, same operation counts), so outputs
/// and OpCounts match that scalar oracle bit for bit (tests/pt_oracle.hpp,
/// tests/test_kernel_equivalence, tests/test_stream). The exact kernel may
/// evaluate a stage's linear form in another order (see arith::ExactKernel):
/// mod 2^32 that yields the same bits.
///
/// Coefficients. The paper implements the five stages as FIR filters (its
/// §5: "the five stages (FIR filters)"), with the per-stage adder/multiplier
/// counts of §2 and §4.2. The tap sets below reproduce those counts exactly:
///
///  - **LPF** (fc = 12 Hz): H(z) = (1 - z^-6)^2 / (1 - z^-1)^2 expanded to
///    its 11-tap triangular FIR [1,2,3,4,5,6,5,4,3,2,1] — a 10th-order,
///    11-tap filter with 11 multipliers and 10 adders, matching the paper's
///    "10 adders, 11 multipliers, and 10 registers". Gain 36, renormalized
///    by >> 5.
///  - **HPF** (fc = 5 Hz): all-pass minus moving average,
///    y[n] = 32 x[n-16] - sum_{i=0..31} x[n-i], i.e. 32 non-zero taps
///    (c_16 = +31, all others -1) — 32 multipliers and 31 adders, matching
///    §4.2. Gain 32, renormalized by >> 5.
///  - **Differentiator**: the classic 5-tap slope filter
///    y[n] = (1/8)(2 x[n] + x[n-1] - x[n-3] - 2 x[n-4]); coefficient
///    magnitudes 2 and 1, exactly as §4.2 notes.
///  - **Squarer**: y[n] = x[n]^2 (one 16x16 multiplier).
///  - **MWI**: 30-sample moving-window integral (150 ms at 200 Hz, the
///    window Pan & Tompkins recommend), adder-only; the hardware divide is
///    the shift-by-5 variant (gain 30/32).
///
/// Every consumer (fixed-point pipeline, netlist stage builders, cost model,
/// the double-precision test reference) derives from these arrays, so stage
/// structure can never diverge between the quality simulation and the energy
/// model.
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/common/types.hpp"

namespace xbs::pantompkins {

inline constexpr std::array<int, 11> kLpfTaps = {1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1};
inline constexpr int kLpfShift = 5;  ///< output >> 5 (gain 36/32)

/// HPF taps: c_16 = +31, all other 32 taps are -1.
[[nodiscard]] constexpr std::array<int, 32> hpf_taps() noexcept {
  std::array<int, 32> taps{};
  for (auto& t : taps) t = -1;
  taps[16] = 31;
  return taps;
}
inline constexpr std::array<int, 32> kHpfTaps = hpf_taps();
inline constexpr int kHpfShift = 5;  ///< output >> 5 (gain 32/32)

inline constexpr std::array<int, 5> kDerTaps = {2, 1, 0, -1, -2};
inline constexpr int kDerShift = 3;  ///< output >> 3 (gain 8/8)

/// Squarer output scaling: with near-full-scale 16-bit inputs the squared
/// slope reaches 2^30; dropping two LSBs keeps the 30-term MWI sum inside the
/// 32-bit adder datapath in the worst case.
inline constexpr int kSqrShift = 2;

inline constexpr int kMwiWindow = 30;  ///< 150 ms at 200 Hz
inline constexpr int kMwiShift = 5;    ///< output >> 5 (gain 30/32)

/// The five stages, in pipeline order (paper Fig. 3).
enum class Stage { Lpf, Hpf, Der, Sqr, Mwi };
inline constexpr int kNumStages = 5;
inline constexpr std::array<Stage, 5> kAllStages = {Stage::Lpf, Stage::Hpf, Stage::Der,
                                                    Stage::Sqr, Stage::Mwi};

[[nodiscard]] constexpr std::string_view to_string(Stage s) noexcept {
  switch (s) {
    case Stage::Lpf: return "LPF";
    case Stage::Hpf: return "HPF";
    case Stage::Der: return "DER";
    case Stage::Sqr: return "SQR";
    case Stage::Mwi: return "MWI";
  }
  return "?";
}

/// Hardware inventory of one stage: the module counts the paper quotes and
/// the LSB range it sweeps/allows for that stage (§2, §4.2, §6.2).
struct StageInventory {
  Stage stage = Stage::Lpf;
  std::string_view name;
  int n_adders = 0;  ///< 32-bit adder blocks
  int n_mults = 0;   ///< 16x16 multiplier blocks
  int n_registers = 0;
  int max_lsbs = 16;  ///< upper bound of the approximation sweep
};

/// Inventory for each stage: LPF 10+11 (11 taps), HPF 31+32 (32 taps),
/// DER 3+4 (4 non-zero taps), SQR 0+1, MWI 29+0 (30-input adder tree).
[[nodiscard]] const StageInventory& stage_inventory(Stage s) noexcept;

/// A fixed-point FIR stage: per-tap 16x16 multiplies by integer
/// coefficients, a chain of 32-bit accumulations, then an arithmetic
/// normalization shift and 16-bit saturation of the output (the inter-stage
/// register width). All arithmetic flows through the kernel, which must
/// outlive the stage: one batched fir_n call per chunk over the carried
/// history plus the chunk. The approximate kernel runs the tap chain over
/// one product row per distinct coefficient; the exact kernel runs the tap
/// set's sparsest difference form, which for the LPF and HPF taps is the
/// published recursive filter.
class FirStage {
 public:
  /// Throws std::invalid_argument for an empty tap set.
  FirStage(std::span<const int> taps, int out_shift, arith::Kernel& kernel);

  /// Resumable chunked transform: continues from the carried history and
  /// carries it forward. \p y is resized to the chunk length and must not
  /// alias \p x (allocation-free once the scratch has grown).
  void process_chunk(std::span<const i32> x, std::vector<i32>& y);

  /// Zero the carried history: the state of a fresh record.
  void reset();

 private:
  std::vector<i32> taps_;
  int out_shift_;
  arith::Kernel* kernel_;
  /// History-prefixed kernel input: between chunks it holds exactly the
  /// last T-1 inputs, oldest first (zeros for a fresh record); a chunk
  /// appends its samples and then drops all but the last T-1.
  std::vector<i64> padded_;
  std::vector<i64> acc_;  ///< chunk scratch: accumulator chain
};

/// The squarer stage: y = (x * x) >> shift through the kernel's square_n.
/// The output keeps wide precision (it feeds the adder-only MWI stage); the
/// shift keeps the downstream MWI sum inside its 32-bit adders. Stateless.
class SquarerStage {
 public:
  SquarerStage(int out_shift, arith::Kernel& kernel) : out_shift_(out_shift), kernel_(&kernel) {}

  /// \p y must not alias \p x.
  void process_chunk(std::span<const i32> x, std::vector<i32>& y);
  void reset() noexcept {}

 private:
  int out_shift_;
  arith::Kernel* kernel_;
  std::vector<i64> in_;  ///< chunk scratch: clamped operands, then products
};

/// The moving-window-integration stage: the sum of the last `window`
/// samples through a feed-forward balanced tree of window-1 adds per sample
/// (adder-only, no error feedback), then >> shift. One batched
/// Kernel::window_sum_n call per chunk: the kernel owns the tree, whose
/// reduction order matches the netlist builder exactly (the exact kernel
/// evaluates the same sum mod 2^32 as a running sum).
class MwiStage {
 public:
  /// Throws std::invalid_argument for a window below 2.
  MwiStage(int window, int out_shift, arith::Kernel& kernel);

  /// \p y must not alias \p x.
  void process_chunk(std::span<const i32> x, std::vector<i32>& y);
  void reset();

 private:
  std::size_t window_;
  int out_shift_;
  arith::Kernel* kernel_;
  /// History-prefixed kernel input: between chunks it holds exactly the
  /// last w-1 inputs, oldest first (zeros for a fresh record).
  std::vector<i64> padded_;
  std::vector<i64> sum_;  ///< chunk scratch: window sums
};

/// One wired pipeline stage — taps/shift/window resolved from the
/// coefficient sets above for the given Stage — bound to a kernel, with its
/// carry-over state held internally. This is the single source of stage
/// wiring shared by the batch pipeline (`run_stage`, cache-sized blocks),
/// the exploration stage cache, and the streaming `stream::Session`.
class StageProcessor {
 public:
  StageProcessor(Stage s, arith::Kernel& kernel);

  /// Resumable: consume a chunk of any size, carrying state across calls.
  /// \p out is reused across calls (allocation-free hot path) and must not
  /// alias \p x.
  void process_chunk(std::span<const i32> x, std::vector<i32>& out);

  /// Drop the carried state (start of a fresh record).
  void reset();

 private:
  std::variant<FirStage, SquarerStage, MwiStage> impl_;
};

}  // namespace xbs::pantompkins
