/// \file algorithm1.hpp
/// \brief The paper's three-phase design generation methodology
/// (Algorithm 1, §4.3).
///
/// Phase 1 configures the *least* energy-lucrative stage first (the stage
/// list is sorted ascending by maximum energy savings), scanning from the
/// aggressive end of the approximation spectrum (maximum LSBs, cheapest
/// modules) and accepting the first quality-satisfying design. Phase 2 walks
/// each subsequent stage from the gentle end (reversed lists), collecting
/// satisfying designs until the first violation. Phase 3 trades LSBs
/// diagonally between the current stage pair (+/- 2), keeping satisfying
/// pairs, then commits the maximum-energy-saving design of each stage.
///
/// Where the pseudo-code is ambiguous the implementation follows the
/// surrounding prose and re-validates the committed configuration at the
/// end, falling back to the last known-satisfying combination if the
/// independently-selected pair violates the constraint (the paper's final
/// designs are always re-validated against the constraint too).
#pragma once

#include <vector>

#include "xbs/explore/design.hpp"
#include "xbs/explore/energy_model.hpp"
#include "xbs/explore/evaluator.hpp"

namespace xbs::explore {

/// One evaluated point in the exploration log.
struct ExploredPoint {
  Design design;        ///< the full candidate (all configured stages)
  double quality = 0;   ///< evaluator metric
  bool satisfied = false;
  int phase = 0;        ///< 1, 2 or 3
};

/// Outcome of the design generation methodology.
struct Algorithm1Result {
  Design best;                        ///< committed per-stage configuration
  double best_quality = 0.0;          ///< re-validated quality of `best`
  double energy_reduction = 1.0;      ///< vs the accurate pipeline
  std::vector<ExploredPoint> log;     ///< every evaluated design, in order
  int evaluations = 0;                ///< == log.size()
  bool feasible = false;              ///< some satisfying design was found
  /// Stage-cache activity of the evaluator during the run. In a
  /// design_generation_batch it counts only the designs this job evaluated
  /// itself, not those another job of the batch evaluated first.
  StageCacheStats cache{};
};

/// Run Algorithm 1 over the given stages.
///
/// \param spaces     one search space per stage to approximate
/// \param lists      elementary module lists, cheapest-first
/// \param evaluator  quality evaluation (PSNR stage or accuracy stage)
/// \param energy     energy model used for the sort and Best() selection
/// \param quality_constraint  the user-defined constraint (same unit as the
///        evaluator's metric)
[[nodiscard]] Algorithm1Result design_generation(std::vector<StageSpace> spaces,
                                                 const ModuleLists& lists,
                                                 QualityEvaluator& evaluator,
                                                 const StageEnergyModel& energy,
                                                 double quality_constraint);

}  // namespace xbs::explore
