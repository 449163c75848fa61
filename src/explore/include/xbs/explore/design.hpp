/// \file design.hpp
/// \brief Design-space vocabulary: per-stage approximation choices.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::explore {

/// One stage's approximation parameters — the (LSB, Mult, Add) triple of
/// Algorithm 1.
struct StageDesign {
  pantompkins::Stage stage = pantompkins::Stage::Lpf;
  int lsbs = 0;
  AdderKind add_kind = AdderKind::Approx5;
  MultKind mult_kind = MultKind::V1;
  ApproxPolicy policy = ApproxPolicy::Moderate;

  [[nodiscard]] arith::StageArithConfig arith_config() const noexcept {
    return arith::StageArithConfig::uniform(lsbs, add_kind, mult_kind, policy);
  }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const StageDesign&, const StageDesign&) = default;
};

/// A (partial) design: approximation parameters for a subset of stages;
/// unlisted stages are accurate.
using Design = std::vector<StageDesign>;

/// Render a design like "LPF:10/Add5/V1 HPF:8/Add5/V1".
[[nodiscard]] std::string to_string(const Design& d);

/// Find the entry for a stage, if present.
[[nodiscard]] std::optional<StageDesign> find_stage(const Design& d, pantompkins::Stage s);

/// Merge designs (later entries override earlier ones for the same stage).
[[nodiscard]] Design merge(const Design& base, const Design& overlay);

/// Convert a design to a full pipeline configuration (absent stages exact).
[[nodiscard]] pantompkins::PipelineConfig to_pipeline_config(const Design& d);

/// The search space of one stage: the LSB sweep list (ascending) plus the
/// maximum achievable energy savings found by the resilience analysis (used
/// by Algorithm 1's stage ordering).
struct StageSpace {
  pantompkins::Stage stage = pantompkins::Stage::Lpf;
  std::vector<int> lsb_list_ascending;  ///< e.g. {0, 2, ..., 16}
  double max_energy_savings = 1.0;
};

/// Elementary module lists in *cheapest-first* order (the aggressive end of
/// the approximation spectrum, where phase 1 of Algorithm 1 starts).
struct ModuleLists {
  std::vector<AdderKind> adders{AdderKind::Approx5};
  std::vector<MultKind> mults{MultKind::V1};
};

/// Default per-stage sweep lists: step-2 LSBs up to the stage's limit
/// (paper §6.1-6.2: 16 for LPF/HPF, 4 for DER, 8 for SQR, 16 for MWI).
[[nodiscard]] std::vector<int> default_lsb_list(pantompkins::Stage s);

}  // namespace xbs::explore
