/// \file pipeline.hpp
/// \brief The end-to-end fixed-point Pan-Tompkins pipeline with per-stage
/// approximate arithmetic configuration.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/common/types.hpp"
#include "xbs/pantompkins/detector.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::pantompkins {

/// Per-stage LSB counts — the paper's hardware-configuration vocabulary
/// (Fig. 12's table lists configurations exactly like this).
using LsbVector = std::array<int, kNumStages>;

/// Pipeline configuration: one arithmetic configuration per stage plus the
/// detector constants.
struct PipelineConfig {
  std::array<arith::StageArithConfig, kNumStages> stage{};
  DetectorParams detector{};

  /// All stages exact.
  [[nodiscard]] static PipelineConfig accurate() noexcept { return PipelineConfig{}; }

  /// Per-stage LSB counts with a common adder/multiplier kind — e.g.
  /// configuration B9 of Fig. 12 is from_lsbs({10, 12, 2, 8, 16}).
  [[nodiscard]] static PipelineConfig from_lsbs(
      const LsbVector& lsbs, AdderKind add_kind = AdderKind::Approx5,
      MultKind mult_kind = MultKind::V1,
      ApproxPolicy policy = ApproxPolicy::Moderate) noexcept;

  /// The same LSB count at every stage (the Fig. 10 experiment).
  [[nodiscard]] static PipelineConfig uniform(
      int lsbs, AdderKind add_kind = AdderKind::Approx5, MultKind mult_kind = MultKind::V1,
      ApproxPolicy policy = ApproxPolicy::Moderate) noexcept {
    return from_lsbs(LsbVector{lsbs, lsbs, lsbs, lsbs, lsbs}, add_kind, mult_kind, policy);
  }

  /// Equality is what lets an Algorithm 1 batch key its shared design memo
  /// on the configuration a candidate runs (explore/parallel.cpp).
  friend constexpr bool operator==(const PipelineConfig&, const PipelineConfig&) = default;
};

/// Per-stage signals plus detection output.
struct PipelineResult {
  std::vector<i32> lpf;
  std::vector<i32> hpf;
  std::vector<i32> der;
  std::vector<i32> sqr;
  std::vector<i32> mwi;
  DetectionResult detection;
  std::array<arith::OpCounts, kNumStages> ops{};

  [[nodiscard]] const std::vector<i32>& stage_signal(Stage s) const noexcept;

  /// Aggregate datapath operation count across all five stages.
  [[nodiscard]] arith::OpCounts total_ops() const noexcept;
};

/// Block size of run_stage: whole records pass through the stage in blocks of
/// this many samples, so the stage and kernel scratch stays cache-resident
/// instead of spanning the record.
inline constexpr std::size_t kStageBlock = 1024;

/// Run one stage as a whole-record transform over a freshly built kernel for
/// \p cfg (exact native backend when the configuration is accurate): the
/// record in kStageBlock-sample chunks through one streaming StageProcessor,
/// which owns the stage wiring (taps, shifts, window) shared by the batch
/// pipeline, the exploration stage cache, and stream::Session. Chunk
/// invariance makes the output that of one whole-record chunk. If \p ops is
/// non-null it receives the stage's operation counts.
[[nodiscard]] std::vector<i32> run_stage(Stage s, const arith::StageArithConfig& cfg,
                                         std::span<const i32> input,
                                         arith::OpCounts* ops = nullptr);

/// Pre-build every process-wide lookup table the given stage configuration
/// walks — the multiplier behavioural model, the signed product table of
/// each distinct non-zero FIR tap, and (for the squarer) the square table —
/// by pushing one zero sample through the stage on a fresh kernel: a kernel
/// builds its tables on its first call, so this knows no more about them
/// than the kernel does. Serving layers call it outside their
/// timed/latency-sensitive regions (stream::StreamServer::open warms every
/// stage of its spec before it builds the session), so the streaming hot
/// path never builds a table (arith::table_cache_stats(), asserted in
/// test_kernel_dispatch). The warmed tables are the layout every dispatched
/// kernel tier walks — 64-byte-aligned i64 rows serve the scalar loads and
/// the AVX2/AVX-512 gathers alike (arith::kernel_isa()), so a warm-up stays
/// valid if the selected tier is forced afterwards. Exact configurations
/// build nothing.
void warm_stage_tables(Stage s, const arith::StageArithConfig& cfg);

/// warm_stage_tables for all five stages of a pipeline configuration.
void warm_pipeline_tables(const PipelineConfig& cfg);

/// The five-stage pipeline. Stages whose configuration is exact run on the
/// native datapath; approximated stages run bit-accurately through the
/// behavioural models. Records are processed as contiguous buffers: each
/// stage is one run_stage over the whole signal (one batched kernel call per
/// kStageBlock-sample block), not a per-sample scalar loop.
class PanTompkinsPipeline {
 public:
  explicit PanTompkinsPipeline(const PipelineConfig& cfg = PipelineConfig::accurate());

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }

  /// Filter + detect over a whole digitized record.
  [[nodiscard]] PipelineResult run(std::span<const i32> adu) const;

  /// Filter only (no detection) — used by quality evaluation sweeps that
  /// only need the intermediate signal.
  [[nodiscard]] PipelineResult run_filters(std::span<const i32> adu) const;

 private:
  PipelineConfig cfg_;
};

}  // namespace xbs::pantompkins
