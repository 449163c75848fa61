#include "xbs/pantompkins/pipeline.hpp"

#include <algorithm>

namespace xbs::pantompkins {

PipelineConfig PipelineConfig::from_lsbs(const LsbVector& lsbs, AdderKind add_kind,
                                         MultKind mult_kind, ApproxPolicy policy) noexcept {
  PipelineConfig cfg;
  for (int s = 0; s < kNumStages; ++s) {
    cfg.stage[static_cast<std::size_t>(s)] =
        arith::StageArithConfig::uniform(lsbs[static_cast<std::size_t>(s)], add_kind, mult_kind,
                                         policy);
  }
  return cfg;
}

const std::vector<i32>& PipelineResult::stage_signal(Stage s) const noexcept {
  switch (s) {
    case Stage::Lpf: return lpf;
    case Stage::Hpf: return hpf;
    case Stage::Der: return der;
    case Stage::Sqr: return sqr;
    case Stage::Mwi: return mwi;
  }
  return mwi;  // unreachable
}

arith::OpCounts PipelineResult::total_ops() const noexcept {
  arith::OpCounts total;
  for (const arith::OpCounts& o : ops) total += o;
  return total;
}

void warm_stage_tables(Stage s, const arith::StageArithConfig& cfg) {
  // The kernel resolves every table its stage walks on first use: one zero
  // sample through the stage builds them.
  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  StageProcessor stage(s, *kernel);
  const i32 zero = 0;
  std::vector<i32> out;
  stage.process_chunk(std::span<const i32>(&zero, 1), out);
}

void warm_pipeline_tables(const PipelineConfig& cfg) {
  for (int s = 0; s < kNumStages; ++s) {
    warm_stage_tables(static_cast<Stage>(s), cfg.stage[static_cast<std::size_t>(s)]);
  }
}

std::vector<i32> run_stage(Stage s, const arith::StageArithConfig& cfg,
                           std::span<const i32> input, arith::OpCounts* ops) {
  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  // The record in cache-sized blocks through the streaming core: the batch
  // path is a thin wrapper over the same resumable stage it serves.
  StageProcessor stage(s, *kernel);
  std::vector<i32> out(input.size());
  std::vector<i32> block;
  for (std::size_t at = 0; at < input.size(); at += kStageBlock) {
    stage.process_chunk(input.subspan(at, std::min(kStageBlock, input.size() - at)), block);
    std::copy(block.begin(), block.end(), out.begin() + static_cast<std::ptrdiff_t>(at));
  }
  if (ops != nullptr) *ops = kernel->counts();
  return out;
}

PanTompkinsPipeline::PanTompkinsPipeline(const PipelineConfig& cfg) : cfg_(cfg) {}

PipelineResult PanTompkinsPipeline::run_filters(std::span<const i32> adu) const {
  PipelineResult out;
  out.lpf = run_stage(Stage::Lpf, cfg_.stage[0], adu, &out.ops[0]);
  out.hpf = run_stage(Stage::Hpf, cfg_.stage[1], out.lpf, &out.ops[1]);
  out.der = run_stage(Stage::Der, cfg_.stage[2], out.hpf, &out.ops[2]);
  out.sqr = run_stage(Stage::Sqr, cfg_.stage[3], out.der, &out.ops[3]);
  out.mwi = run_stage(Stage::Mwi, cfg_.stage[4], out.sqr, &out.ops[4]);
  return out;
}

PipelineResult PanTompkinsPipeline::run(std::span<const i32> adu) const {
  PipelineResult out = run_filters(adu);
  out.detection = detect_qrs(out.mwi, out.hpf, adu, cfg_.detector);
  return out;
}

}  // namespace xbs::pantompkins
