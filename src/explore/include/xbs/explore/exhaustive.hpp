/// \file exhaustive.hpp
/// \brief Exhaustive and heuristic baseline explorers (paper §6.1, Fig. 11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "xbs/explore/design.hpp"
#include "xbs/explore/energy_model.hpp"
#include "xbs/explore/evaluator.hpp"

namespace xbs::explore {

/// One fully evaluated grid point.
struct GridPoint {
  Design design;
  double quality = 0.0;
  double energy_reduction = 1.0;
  bool satisfied = false;
};

/// Result of a grid exploration.
struct GridResult {
  /// One point per design, in enumerate_grid_designs order (the explorers'
  /// results); a shard's points come in evaluation order (evaluate_designs).
  std::vector<GridPoint> points;
  int evaluations = 0;
  /// Stage-cache activity during this exploration (zeroes when the evaluator
  /// does not memoize). The explorers evaluate in pipeline_order, which varies
  /// the deepest stage fastest, so unchanged pipeline prefixes are served
  /// from cache.
  StageCacheStats cache{};
  /// Best = maximum energy reduction among constraint-satisfying points.
  [[nodiscard]] const GridPoint* best() const noexcept;
};

/// Materialize the grid a run reports, in the order its spaces are listed:
/// the last listed stage varies fastest, and each design lists its stages in
/// that order too. `per_stage_modules = true` is the exhaustive grid (every
/// module pair per stage); `false` is the heuristic grid (one global module
/// pair per design). The serial and parallel explorers report their points
/// in this order, whatever order they evaluate them in.
[[nodiscard]] std::vector<Design> enumerate_grid_designs(
    const std::vector<StageSpace>& spaces, const ModuleLists& lists,
    bool per_stage_modules);

/// The order the explorers evaluate \p designs in: the permutation of their
/// indices that sorts them by per-stage choice in pipeline order (LPF, HPF,
/// DER, SQR, MWI), and within a stage by LSBs, then by the multiplier's and
/// the adder's position in \p lists. The deepest stage then varies fastest,
/// whatever order the spaces were listed in, so consecutive designs share the
/// longest pipeline prefix a memoizing evaluator can reuse. Equal keys keep
/// their enumeration order. The serial explorers walk this permutation whole;
/// the parallel engine shards it.
[[nodiscard]] std::vector<std::size_t> pipeline_order(const std::vector<Design>& designs,
                                                      const ModuleLists& lists);

/// Evaluate designs[i] for each i of \p order, in that sequence, with one
/// evaluator: each point's quality, energy reduction and constraint check, the
/// evaluation count, and the evaluator's stage-cache delta over the call.
/// Points come back in evaluation order: points[k] is designs[order[k]]. The
/// serial explorers run it over the whole grid, the parallel engine over each
/// shard.
[[nodiscard]] GridResult evaluate_designs(const std::vector<Design>& designs,
                                          std::span<const std::size_t> order,
                                          QualityEvaluator& evaluator,
                                          const StageEnergyModel& energy,
                                          double quality_constraint);

/// Exhaustively evaluate the cross product of every stage's LSB list with
/// the given module lists applied per stage (the 9x9 = 81-combination
/// experiment of Table 2 when called with the two pre-processing stages and
/// singleton module lists).
[[nodiscard]] GridResult exhaustive_explore(const std::vector<StageSpace>& spaces,
                                            const ModuleLists& lists,
                                            QualityEvaluator& evaluator,
                                            const StageEnergyModel& energy,
                                            double quality_constraint);

/// The paper's "heuristic" baseline (§6.1): one elementary adder and
/// multiplier pair for the whole design, LSBs restricted to multiples of two
/// — i.e. the same grid as exhaustive_explore but with the module pair
/// chosen globally instead of per stage.
[[nodiscard]] GridResult heuristic_explore(const std::vector<StageSpace>& spaces,
                                           const ModuleLists& lists,
                                           QualityEvaluator& evaluator,
                                           const StageEnergyModel& energy,
                                           double quality_constraint);

}  // namespace xbs::explore
