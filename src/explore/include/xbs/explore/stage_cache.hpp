/// \file stage_cache.hpp
/// \brief Per-stage memoized pipeline evaluation for the design-space
/// explorers.
///
/// Stage s of the Pan-Tompkins chain depends only on the record and on the
/// arithmetic configurations of stages 0..s. During exploration (Algorithm 1,
/// the exhaustive/heuristic grids), consecutive candidate designs usually
/// differ in a suffix of the pipeline — the grids evaluate in pipeline_order,
/// which varies the deepest stage fastest — so the runner caches each stage's
/// output per record, keyed by its StageArithConfig, and recomputes only from
/// the first stage whose configuration changed. An unchanged prefix is never
/// re-simulated. Detection (native control logic) is likewise reused when no
/// filter stage changed.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "xbs/common/types.hpp"
#include "xbs/ecg/record.hpp"
#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::explore {

/// A workload shared between runners/evaluators without copying: the records
/// are immutable for the lifetime of every runner holding the pointer. The
/// parallel exploration engine hands one SharedRecords to per-shard
/// evaluators so N workers share a single in-memory copy of the (potentially
/// large) record set and of its ground-truth annotations.
using SharedRecords = std::shared_ptr<const std::vector<ecg::DigitizedRecord>>;

/// Wrap a workload for sharing (one copy, then reference-counted).
[[nodiscard]] inline SharedRecords share_records(std::vector<ecg::DigitizedRecord> records) {
  return std::make_shared<const std::vector<ecg::DigitizedRecord>>(std::move(records));
}

/// Activity counters of a MemoizedPipelineRunner (per record-evaluation).
struct StageCacheStats {
  u64 runs = 0;              ///< record evaluations served
  u64 stage_hits = 0;        ///< stage outputs reused from cache
  u64 stage_recomputes = 0;  ///< stage outputs recomputed
  u64 detect_hits = 0;       ///< detections reused from cache
  u64 detect_recomputes = 0; ///< detections recomputed

  /// Fraction of stage evaluations served from cache, in [0, 1].
  [[nodiscard]] double stage_hit_rate() const noexcept {
    const u64 total = stage_hits + stage_recomputes;
    return total == 0 ? 0.0 : static_cast<double>(stage_hits) / static_cast<double>(total);
  }

  friend constexpr bool operator==(StageCacheStats, StageCacheStats) = default;
};

/// Delta between two cumulative counter snapshots (later minus earlier).
[[nodiscard]] constexpr StageCacheStats operator-(StageCacheStats a,
                                                  StageCacheStats b) noexcept {
  return StageCacheStats{a.runs - b.runs, a.stage_hits - b.stage_hits,
                         a.stage_recomputes - b.stage_recomputes,
                         a.detect_hits - b.detect_hits,
                         a.detect_recomputes - b.detect_recomputes};
}

/// Counter aggregation (merging per-shard deltas of a parallel exploration).
[[nodiscard]] constexpr StageCacheStats operator+(StageCacheStats a,
                                                  StageCacheStats b) noexcept {
  return StageCacheStats{a.runs + b.runs, a.stage_hits + b.stage_hits,
                         a.stage_recomputes + b.stage_recomputes,
                         a.detect_hits + b.detect_hits,
                         a.detect_recomputes + b.detect_recomputes};
}

/// Owns a workload of digitized records and serves pipeline evaluations with
/// per-stage prefix memoization. Results are bit-identical to a fresh
/// PanTompkinsPipeline run (the stages are deterministic block transforms;
/// asserted in tests/test_stage_cache.cpp).
///
/// Thread contract: each record has its own cache and its own counters, so
/// runs of *distinct* records may overlap (an Algorithm 1 batch runs one
/// evaluation's records on several threads, parallel.hpp). Runs of the same
/// record, and stats(), must not overlap any run.
class MemoizedPipelineRunner {
 public:
  explicit MemoizedPipelineRunner(std::vector<ecg::DigitizedRecord> records);
  /// Shared-workload construction: the runner keeps per-record caches of its
  /// own but reads the records through the shared immutable pointer — the
  /// form the parallel exploration workers use.
  explicit MemoizedPipelineRunner(SharedRecords records);

  [[nodiscard]] std::size_t num_records() const noexcept { return records_->size(); }
  [[nodiscard]] const ecg::DigitizedRecord& record(std::size_t i) const {
    return (*records_)[i];
  }
  [[nodiscard]] const SharedRecords& records() const noexcept { return records_; }

  /// Filter-only evaluation. The returned reference is valid until the next
  /// run/run_filters call for the same record.
  [[nodiscard]] const pantompkins::PipelineResult& run_filters(
      std::size_t i, const pantompkins::PipelineConfig& cfg);

  /// Filter + detection evaluation (same reference lifetime rule).
  [[nodiscard]] const pantompkins::PipelineResult& run(
      std::size_t i, const pantompkins::PipelineConfig& cfg);

  /// The counters of every record, summed.
  [[nodiscard]] StageCacheStats stats() const noexcept;

 private:
  struct RecordCache {
    std::array<arith::StageArithConfig, pantompkins::kNumStages> cfg{};
    int valid_stages = 0;  ///< stages [0, valid_stages) of `result` match `cfg`
    bool detect_valid = false;
    pantompkins::DetectorParams detect_params{};
    pantompkins::PipelineResult result;
    StageCacheStats stats;  ///< this record's runs
  };

  SharedRecords records_;
  std::vector<RecordCache> cache_;
};

}  // namespace xbs::explore
