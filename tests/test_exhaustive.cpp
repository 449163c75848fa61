// Tests for the exhaustive/heuristic baseline explorers and the
// exploration-time model.
#include <gtest/gtest.h>

#include <cmath>

#include "xbs/ecg/dataset.hpp"
#include "xbs/explore/exhaustive.hpp"
#include "xbs/explore/timing.hpp"

namespace xbs::explore {
namespace {

using pantompkins::Stage;

TEST(Exhaustive, GridSizeIsProductOfLists) {
  std::vector<ecg::DigitizedRecord> recs = {ecg::nsrdb_like_digitized(0, 4000)};
  PreprocPsnrEvaluator eval(std::move(recs));
  const StageEnergyModel energy;
  StageSpace lpf{Stage::Lpf, {0, 8, 16}, 1.0};
  StageSpace hpf{Stage::Hpf, {0, 8}, 1.0};
  const auto grid = exhaustive_explore({lpf, hpf}, ModuleLists{}, eval, energy, 30.0);
  EXPECT_EQ(grid.evaluations, 6);  // 3 x 2 with singleton module lists
  EXPECT_EQ(grid.points.size(), 6u);
}

TEST(Exhaustive, ModuleListsMultiplyNonZeroPoints) {
  std::vector<ecg::DigitizedRecord> recs = {ecg::nsrdb_like_digitized(0, 4000)};
  PreprocPsnrEvaluator eval(std::move(recs));
  const StageEnergyModel energy;
  StageSpace lpf{Stage::Lpf, {0, 16}, 1.0};
  ModuleLists lists{{AdderKind::Approx5, AdderKind::Approx2}, {MultKind::V1}};
  const auto grid = exhaustive_explore({lpf}, lists, eval, energy, 30.0);
  // lsb=0 contributes 1 point; lsb=16 contributes 2 (adder kinds) x 1.
  EXPECT_EQ(grid.evaluations, 3);
}

TEST(Exhaustive, BestMaximizesEnergyAmongSatisfying) {
  std::vector<ecg::DigitizedRecord> recs = {ecg::nsrdb_like_digitized(0, 4000)};
  PreprocPsnrEvaluator eval(std::move(recs));
  const StageEnergyModel energy;
  StageSpace lpf{Stage::Lpf, default_lsb_list(Stage::Lpf), 1.0};
  const auto grid = exhaustive_explore({lpf}, ModuleLists{}, eval, energy, 30.0);
  const GridPoint* best = grid.best();
  ASSERT_NE(best, nullptr);
  EXPECT_TRUE(best->satisfied);
  for (const auto& p : grid.points) {
    if (p.satisfied) {
      EXPECT_LE(p.energy_reduction, best->energy_reduction + 1e-12);
    }
  }
}

TEST(Heuristic, GlobalModulePairGrid) {
  std::vector<ecg::DigitizedRecord> recs = {ecg::nsrdb_like_digitized(0, 4000)};
  PreprocPsnrEvaluator eval(std::move(recs));
  const StageEnergyModel energy;
  StageSpace lpf{Stage::Lpf, {0, 16}, 1.0};
  StageSpace hpf{Stage::Hpf, {0, 16}, 1.0};
  ModuleLists lists{{AdderKind::Approx5, AdderKind::Approx2}, {MultKind::V1}};
  const auto grid = heuristic_explore({lpf, hpf}, lists, eval, energy, 30.0);
  // 2 global module pairs x 2 x 2 LSB grid = 8 evaluations.
  EXPECT_EQ(grid.evaluations, 8);
}

TEST(Exhaustive, EvaluatesInPipelineOrderReportsInListedOrder) {
  // SQR listed before DER, as dse_paper lists them: the explorer still varies
  // the deepest pipeline stage fastest, so it does exactly the stage work of
  // the pipeline-ordered listing, and reports points in the listed order.
  const std::vector<ecg::DigitizedRecord> recs = {ecg::nsrdb_like_digitized(0, 3000)};
  const StageEnergyModel energy;
  const StageSpace lpf{Stage::Lpf, {0, 8}, 1.0};
  const StageSpace sqr{Stage::Sqr, {0, 4, 8}, 1.0};
  const StageSpace der{Stage::Der, {0, 2}, 1.0};
  const ModuleLists lists{{AdderKind::Approx5, AdderKind::Approx2}, {MultKind::V1}};

  AccuracyEvaluator listed_eval(recs);
  const GridResult listed = exhaustive_explore({lpf, sqr, der}, lists, listed_eval, energy, 99.0);
  AccuracyEvaluator piped_eval(recs);
  const GridResult piped = exhaustive_explore({lpf, der, sqr}, lists, piped_eval, energy, 99.0);
  EXPECT_EQ(listed.cache, piped.cache);

  const std::vector<Design> designs = enumerate_grid_designs({lpf, sqr, der}, lists, true);
  ASSERT_EQ(listed.points.size(), designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    EXPECT_EQ(listed.points[i].design, designs[i]) << "point " << i;
  }
}

TEST(TimeModel, PaperEvaluationUnit) {
  const ExplorationTimeModel t;
  // One 20k-sample evaluation ~ 300 s (paper §6.1): 81 evaluations ~ 6.75 h,
  // matching "an exhaustive exploration of 81 possible scenarios takes
  // roughly seven hours".
  EXPECT_NEAR(t.hours(81), 6.75, 0.01);
}

TEST(TimeModel, GrowthRates) {
  const ExplorationTimeModel t;
  EXPECT_DOUBLE_EQ(t.exhaustive_evaluations(1), 17.0 * 6 * 3);
  EXPECT_DOUBLE_EQ(t.exhaustive_evaluations(2), std::pow(17.0 * 6 * 3, 2));
  EXPECT_DOUBLE_EQ(t.heuristic_evaluations(1), 6.0 * 3 * 9);
  EXPECT_DOUBLE_EQ(t.heuristic_evaluations(3), 6.0 * 3 * 9 * 9 * 9);
  EXPECT_GT(t.years(t.exhaustive_evaluations(6)), 1e6);  // astronomically infeasible
}

}  // namespace
}  // namespace xbs::explore
