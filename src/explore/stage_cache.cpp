#include "xbs/explore/stage_cache.hpp"

namespace xbs::explore {
namespace {

using pantompkins::PipelineResult;
using pantompkins::Stage;

std::vector<i32>& mutable_signal(PipelineResult& r, int s) {
  switch (static_cast<Stage>(s)) {
    case Stage::Lpf: return r.lpf;
    case Stage::Hpf: return r.hpf;
    case Stage::Der: return r.der;
    case Stage::Sqr: return r.sqr;
    case Stage::Mwi: return r.mwi;
  }
  return r.mwi;  // unreachable
}

}  // namespace

MemoizedPipelineRunner::MemoizedPipelineRunner(std::vector<ecg::DigitizedRecord> records)
    : MemoizedPipelineRunner(share_records(std::move(records))) {}

MemoizedPipelineRunner::MemoizedPipelineRunner(SharedRecords records)
    : records_(std::move(records)), cache_(records_->size()) {}

const PipelineResult& MemoizedPipelineRunner::run_filters(
    std::size_t i, const pantompkins::PipelineConfig& cfg) {
  RecordCache& rc = cache_[i];
  // The longest cached prefix whose configuration is unchanged stays as-is.
  int first_dirty = 0;
  while (first_dirty < rc.valid_stages &&
         cfg.stage[static_cast<std::size_t>(first_dirty)] ==
             rc.cfg[static_cast<std::size_t>(first_dirty)]) {
    ++first_dirty;
  }
  ++rc.stats.runs;
  rc.stats.stage_hits += static_cast<u64>(first_dirty);
  rc.stats.stage_recomputes += static_cast<u64>(pantompkins::kNumStages - first_dirty);
  if (first_dirty < pantompkins::kNumStages) {
    rc.detect_valid = false;
    for (int s = first_dirty; s < pantompkins::kNumStages; ++s) {
      const auto su = static_cast<std::size_t>(s);
      const std::span<const i32> input =
          s == 0 ? std::span<const i32>((*records_)[i].adu)
                 : std::span<const i32>(mutable_signal(rc.result, s - 1));
      mutable_signal(rc.result, s) =
          pantompkins::run_stage(static_cast<Stage>(s), cfg.stage[su], input,
                                 &rc.result.ops[su]);
      rc.cfg[su] = cfg.stage[su];
    }
    rc.valid_stages = pantompkins::kNumStages;
  }
  return rc.result;
}

const PipelineResult& MemoizedPipelineRunner::run(std::size_t i,
                                                  const pantompkins::PipelineConfig& cfg) {
  RecordCache& rc = cache_[i];
  (void)run_filters(i, cfg);
  if (rc.detect_valid && rc.detect_params == cfg.detector) {
    ++rc.stats.detect_hits;
  } else {
    rc.result.detection =
        pantompkins::detect_qrs(rc.result.mwi, rc.result.hpf, (*records_)[i].adu, cfg.detector);
    rc.detect_valid = true;
    rc.detect_params = cfg.detector;
    ++rc.stats.detect_recomputes;
  }
  return rc.result;
}

StageCacheStats MemoizedPipelineRunner::stats() const noexcept {
  StageCacheStats sum;
  for (const RecordCache& rc : cache_) sum = sum + rc.stats;
  return sum;
}

}  // namespace xbs::explore
