#include "xbs/explore/exhaustive.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
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

std::vector<std::size_t> pipeline_order(const std::vector<Design>& designs,
                                        const ModuleLists& lists) {
  const auto position = [](const auto& list, auto kind) {
    return static_cast<int>(std::find(list.begin(), list.end(), kind) - list.begin());
  };
  // Each design's (LSBs, multiplier, adder) choice per stage, in pipeline order.
  using Key = std::array<std::array<int, 3>, pantompkins::kNumStages>;
  std::vector<Key> keys(designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (const StageDesign& sd : designs[i]) {
      keys[i][static_cast<std::size_t>(sd.stage)] = {sd.lsbs, position(lists.mults, sd.mult_kind),
                                                     position(lists.adders, sd.add_kind)};
    }
  }
  std::vector<std::size_t> order(designs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&keys](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  return order;
}

GridResult evaluate_designs(const std::vector<Design>& designs,
                            std::span<const std::size_t> order, QualityEvaluator& evaluator,
                            const StageEnergyModel& energy, double quality_constraint) {
  GridResult result;
  result.points.reserve(order.size());
  const StageCacheStats cache_before =
      evaluator.cache_stats() != nullptr ? *evaluator.cache_stats() : StageCacheStats{};
  for (const std::size_t i : order) {
    GridPoint p;
    p.design = designs[i];
    p.quality = evaluator.evaluate(p.design);
    p.energy_reduction = energy.energy_reduction(p.design);
    p.satisfied = p.quality >= quality_constraint;
    result.points.push_back(std::move(p));
  }
  result.evaluations = static_cast<int>(result.points.size());
  if (evaluator.cache_stats() != nullptr) {
    result.cache = *evaluator.cache_stats() - cache_before;
  }
  return result;
}

namespace {

/// The serial grid: evaluated in pipeline_order, reported in enumeration order.
GridResult explore_grid(const std::vector<Design>& designs, const ModuleLists& lists,
                        QualityEvaluator& evaluator, const StageEnergyModel& energy,
                        double quality_constraint) {
  const std::vector<std::size_t> order = pipeline_order(designs, lists);
  GridResult result = evaluate_designs(designs, order, evaluator, energy, quality_constraint);
  std::vector<GridPoint> points(designs.size());
  for (std::size_t k = 0; k < order.size(); ++k) points[order[k]] = std::move(result.points[k]);
  result.points = std::move(points);
  return result;
}

}  // namespace

GridResult exhaustive_explore(const std::vector<StageSpace>& spaces, const ModuleLists& lists,
                              QualityEvaluator& evaluator, const StageEnergyModel& energy,
                              double quality_constraint) {
  return explore_grid(enumerate_grid_designs(spaces, lists, true), lists, evaluator, energy,
                      quality_constraint);
}

GridResult heuristic_explore(const std::vector<StageSpace>& spaces, const ModuleLists& lists,
                             QualityEvaluator& evaluator, const StageEnergyModel& energy,
                             double quality_constraint) {
  return explore_grid(enumerate_grid_designs(spaces, lists, false), lists, evaluator, energy,
                      quality_constraint);
}

}  // namespace xbs::explore
