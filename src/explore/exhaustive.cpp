#include "xbs/explore/exhaustive.hpp"

#include <functional>
#include <utility>

namespace xbs::explore {

const GridPoint* GridResult::best() const noexcept {
  const GridPoint* best = nullptr;
  for (const auto& p : points) {
    if (!p.satisfied) continue;
    if (best == nullptr || p.energy_reduction > best->energy_reduction) best = &p;
  }
  return best;
}

namespace {

/// Recursively enumerate per-stage (LSB, Add, Mult) choices.
void enumerate(const std::vector<StageSpace>& spaces, const ModuleLists& lists,
               bool per_stage_modules, std::size_t stage_idx, Design& current,
               const std::function<void(const Design&)>& visit) {
  if (stage_idx == spaces.size()) {
    visit(current);
    return;
  }
  const StageSpace& sp = spaces[stage_idx];
  for (const int lsb : sp.lsb_list_ascending) {
    if (lsb == 0) {
      current.push_back(StageDesign{sp.stage, 0, lists.adders.front(), lists.mults.front()});
      enumerate(spaces, lists, per_stage_modules, stage_idx + 1, current, visit);
      current.pop_back();
      continue;
    }
    for (const MultKind mult : lists.mults) {
      for (const AdderKind add : lists.adders) {
        current.push_back(StageDesign{sp.stage, lsb, add, mult});
        enumerate(spaces, lists, per_stage_modules, stage_idx + 1, current, visit);
        current.pop_back();
        if (!per_stage_modules) break;  // module pair fixed globally: handled by caller
      }
      if (!per_stage_modules) break;
    }
  }
}

}  // namespace

std::vector<Design> enumerate_grid_designs(const std::vector<StageSpace>& spaces,
                                           const ModuleLists& lists,
                                           bool per_stage_modules) {
  std::vector<Design> designs;
  Design current;
  const auto visit = [&](const Design& d) { designs.push_back(d); };
  if (per_stage_modules) {
    enumerate(spaces, lists, true, 0, current, visit);
  } else {
    // Heuristic: one (Add, Mult) pair for the entire design.
    for (const MultKind mult : lists.mults) {
      for (const AdderKind add : lists.adders) {
        const ModuleLists fixed{{add}, {mult}};
        enumerate(spaces, fixed, false, 0, current, visit);
      }
    }
  }
  return designs;
}

GridResult evaluate_designs(std::span<const Design> designs, QualityEvaluator& evaluator,
                            const StageEnergyModel& energy, double quality_constraint) {
  GridResult result;
  result.points.reserve(designs.size());
  const StageCacheStats cache_before =
      evaluator.cache_stats() != nullptr ? *evaluator.cache_stats() : StageCacheStats{};
  for (const Design& d : designs) {
    GridPoint p;
    p.design = d;
    p.quality = evaluator.evaluate(d);
    p.energy_reduction = energy.energy_reduction(d);
    p.satisfied = p.quality >= quality_constraint;
    result.points.push_back(std::move(p));
  }
  result.evaluations = static_cast<int>(result.points.size());
  if (evaluator.cache_stats() != nullptr) {
    result.cache = *evaluator.cache_stats() - cache_before;
  }
  return result;
}

GridResult exhaustive_explore(const std::vector<StageSpace>& spaces, const ModuleLists& lists,
                              QualityEvaluator& evaluator, const StageEnergyModel& energy,
                              double quality_constraint) {
  return evaluate_designs(enumerate_grid_designs(spaces, lists, true), evaluator, energy,
                          quality_constraint);
}

GridResult heuristic_explore(const std::vector<StageSpace>& spaces, const ModuleLists& lists,
                             QualityEvaluator& evaluator, const StageEnergyModel& energy,
                             double quality_constraint) {
  return evaluate_designs(enumerate_grid_designs(spaces, lists, false), evaluator, energy,
                          quality_constraint);
}

}  // namespace xbs::explore
