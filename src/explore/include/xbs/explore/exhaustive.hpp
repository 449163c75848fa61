/// \file exhaustive.hpp
/// \brief Exhaustive and heuristic baseline explorers (paper §6.1, Fig. 11).
#pragma once

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
  std::vector<GridPoint> points;
  int evaluations = 0;
  /// Stage-cache activity during this exploration (zeroes when the evaluator
  /// does not memoize). The enumeration varies the deepest stage fastest, so
  /// unchanged pipeline prefixes are served from cache.
  StageCacheStats cache{};
  /// Best = maximum energy reduction among constraint-satisfying points.
  [[nodiscard]] const GridPoint* best() const noexcept;
};

/// Materialize the grid a run would evaluate, in evaluation order (deepest
/// stage varies fastest — the stage-cache-friendly order). `per_stage_modules
/// = true` is the exhaustive grid (every module pair per stage);
/// `false` is the heuristic grid (one global module pair per design). The
/// parallel engine shards this list; the serial explorers walk it directly,
/// so both evaluate the identical design sequence.
[[nodiscard]] std::vector<Design> enumerate_grid_designs(
    const std::vector<StageSpace>& spaces, const ModuleLists& lists,
    bool per_stage_modules);

/// Evaluate \p designs in order with one evaluator: each point's quality,
/// energy reduction and constraint check, the evaluation count, and the
/// evaluator's stage-cache delta over the call. The serial explorers run it
/// over the whole grid, the parallel engine over each shard. In
/// enumerate_grid_designs order every step changes only a suffix of the
/// pipeline, so a memoizing evaluator serves the unchanged prefix from its
/// stage cache.
[[nodiscard]] GridResult evaluate_designs(std::span<const Design> designs,
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
