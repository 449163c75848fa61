// Multi-core exploration-engine throughput.
// Runs the same exhaustive grid and the same batch of Algorithm 1 problems
// at 1, 2 and 8 worker threads after one untimed warm-up run of each,
// measures wall time, and verifies the results are bit-identical across
// thread counts: the grid's points, evaluation count and stage-cache
// counters; every Algorithm 1 job's result and every entry of its log. It
// also checks that the batch evaluates the same number of distinct designs
// (`alg1_distinct_evaluations`) at every thread count, and emits one JSON
// object so future PRs have a machine-readable baseline (committed as
// BENCH_explore.json).
//
//   ./bench_explore_throughput [--records N] [--samples M] [--shard S]
//                              [--iters K]
//
// Note on hosts: speedup reflects the machine's core count — on a
// single-core container the engine degrades gracefully to ~1x while staying
// bit-identical; `hardware_threads` is reported so readers can interpret the
// scaling numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/explore/parallel.hpp"

namespace {

using namespace xbs;
using explore::Algorithm1Result;
using explore::GridResult;
using pantompkins::Stage;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

bool same_points(const GridResult& a, const GridResult& b) {
  if (a.points.size() != b.points.size() || a.evaluations != b.evaluations ||
      !(a.cache == b.cache)) {
    return false;
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (!(a.points[i].design == b.points[i].design) ||
        a.points[i].quality != b.points[i].quality ||
        a.points[i].energy_reduction != b.points[i].energy_reduction ||
        a.points[i].satisfied != b.points[i].satisfied) {
      return false;
    }
  }
  return true;
}

bool same_alg1(const std::vector<Algorithm1Result>& a, const std::vector<Algorithm1Result>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (!(a[j].best == b[j].best) || a[j].best_quality != b[j].best_quality ||
        a[j].energy_reduction != b[j].energy_reduction ||
        a[j].evaluations != b[j].evaluations || a[j].log.size() != b[j].log.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a[j].log.size(); ++i) {
      const explore::ExploredPoint& p = a[j].log[i];
      const explore::ExploredPoint& q = b[j].log[i];
      if (!(p.design == q.design) || p.quality != q.quality || p.satisfied != q.satisfied ||
          p.phase != q.phase) {
        return false;
      }
    }
  }
  return true;
}

/// Designs the batch evaluated: its stage-cache runs over all jobs per record.
/// The batch memo makes it the number of distinct designs in the logs.
u64 distinct_evaluations(const std::vector<Algorithm1Result>& batch, int records) {
  u64 runs = 0;
  for (const Algorithm1Result& r : batch) runs += r.cache.runs;
  return runs / static_cast<u64>(records);
}

}  // namespace

int main(int argc, char** argv) {
  const int records = std::max(1, arg_int(argc, argv, "--records", 2));
  const int samples = std::max(1000, arg_int(argc, argv, "--samples", 6000));
  const auto shard = static_cast<std::size_t>(std::max(1, arg_int(argc, argv, "--shard", 4)));
  const int iters = std::max(1, arg_int(argc, argv, "--iters", 2));
  const unsigned thread_counts[] = {1, 2, 8};

  const explore::SharedRecords recs = explore::share_records(
      ecg::nsrdb_like_dataset(records, static_cast<std::size_t>(samples)));
  const explore::EvaluatorFactory factory = [recs] {
    return std::make_unique<explore::AccuracyEvaluator>(recs);
  };
  const explore::StageEnergyModel energy;

  const auto space_of = [&](Stage s, std::vector<int> lsbs) {
    return explore::StageSpace{
        s, std::move(lsbs),
        energy.stage_energy_reduction(
            s, explore::StageDesign{s, explore::default_lsb_list(s).back()}.arith_config())};
  };
  // A 5 x 3 x 3 x 3 = 135-design exhaustive grid over four stages.
  const std::vector<explore::StageSpace> spaces = {
      space_of(Stage::Lpf, {0, 4, 8, 12, 16}),
      space_of(Stage::Hpf, {0, 8, 16}),
      space_of(Stage::Sqr, {0, 4, 8}),
      space_of(Stage::Der, {0, 2, 4}),
  };

  // A batch of Algorithm 1 problems: one per quality constraint — the
  // many-users serving scenario for design generation.
  std::vector<explore::Algorithm1Job> jobs;
  for (const double q : {99.9, 99.5, 99.0, 98.5, 98.0, 97.0, 96.0, 95.0}) {
    jobs.push_back(explore::Algorithm1Job{
        {space_of(Stage::Lpf, explore::default_lsb_list(Stage::Lpf)),
         space_of(Stage::Hpf, explore::default_lsb_list(Stage::Hpf)),
         space_of(Stage::Mwi, explore::default_lsb_list(Stage::Mwi))},
        explore::ModuleLists{},
        q});
  }

  // One untimed grid and batch first: they build the process-wide tables,
  // which would otherwise be charged to the first timed leg (1 thread).
  explore::ParallelExploreOptions opts;
  opts.shard_designs = shard;
  (void)explore::exhaustive_explore_parallel(spaces, explore::ModuleLists{}, factory, energy,
                                             99.0, opts);
  (void)explore::design_generation_batch(jobs, factory, energy, opts.threads);

  double grid_wall[3] = {0, 0, 0};
  double alg1_wall[3] = {0, 0, 0};
  std::vector<GridResult> grids;
  std::vector<std::vector<Algorithm1Result>> batches;
  for (int t = 0; t < 3; ++t) {
    opts.threads = thread_counts[t];
    double best_g = 1e300;
    double best_a = 1e300;
    for (int it = 0; it < iters; ++it) {
      double t0 = now_s();
      GridResult g = explore::exhaustive_explore_parallel(spaces, explore::ModuleLists{},
                                                          factory, energy, 99.0, opts);
      best_g = std::min(best_g, now_s() - t0);
      if (it == 0) grids.push_back(std::move(g));

      t0 = now_s();
      auto b = explore::design_generation_batch(jobs, factory, energy, opts.threads);
      best_a = std::min(best_a, now_s() - t0);
      if (it == 0) batches.push_back(std::move(b));
    }
    grid_wall[t] = best_g;
    alg1_wall[t] = best_a;
  }

  const bool grid_identical =
      same_points(grids[0], grids[1]) && same_points(grids[0], grids[2]);
  const bool alg1_identical =
      same_alg1(batches[0], batches[1]) && same_alg1(batches[0], batches[2]);
  const u64 alg1_distinct = distinct_evaluations(batches[0], records);
  const bool alg1_distinct_identical = distinct_evaluations(batches[1], records) == alg1_distinct &&
                                       distinct_evaluations(batches[2], records) == alg1_distinct;
  int alg1_logical = 0;
  for (const Algorithm1Result& r : batches[0]) alg1_logical += r.evaluations;

  std::printf(
      "{\n"
      "  \"bench\": \"explore_throughput\",\n"
      "  \"isa\": \"%.*s\",\n"
      "  \"workload\": \"exhaustive_grid_plus_algorithm1_batch\",\n"
      "  \"records\": %d,\n"
      "  \"samples_per_record\": %d,\n"
      "  \"hardware_threads\": %u,\n"
      "  \"grid_designs\": %d,\n"
      "  \"shard_designs\": %zu,\n"
      "  \"iters\": %d,\n"
      "  \"grid_wall_s_threads1\": %.3f,\n"
      "  \"grid_wall_s_threads2\": %.3f,\n"
      "  \"grid_wall_s_threads8\": %.3f,\n"
      "  \"grid_speedup_1_to_8\": %.2f,\n"
      "  \"grid_identical_across_threads\": %s,\n"
      "  \"grid_cache_stage_hit_rate\": %.3f,\n"
      "  \"alg1_jobs\": %zu,\n"
      "  \"alg1_wall_s_threads1\": %.3f,\n"
      "  \"alg1_wall_s_threads2\": %.3f,\n"
      "  \"alg1_wall_s_threads8\": %.3f,\n"
      "  \"alg1_speedup_1_to_8\": %.2f,\n"
      "  \"alg1_identical_across_threads\": %s,\n"
      "  \"alg1_evaluations\": %d,\n"
      "  \"alg1_distinct_evaluations\": %llu,\n"
      "  \"alg1_distinct_identical_across_threads\": %s\n"
      "}\n",
      static_cast<int>(to_string(arith::kernel_isa().selected).size()),
      to_string(arith::kernel_isa().selected).data(),
      records, samples, std::thread::hardware_concurrency(), grids[0].evaluations, shard,
      iters, grid_wall[0], grid_wall[1], grid_wall[2], grid_wall[0] / grid_wall[2],
      grid_identical ? "true" : "false", grids[0].cache.stage_hit_rate(), jobs.size(),
      alg1_wall[0], alg1_wall[1], alg1_wall[2], alg1_wall[0] / alg1_wall[2],
      alg1_identical ? "true" : "false", alg1_logical,
      static_cast<unsigned long long>(alg1_distinct), alg1_distinct_identical ? "true" : "false");

  // Non-zero exit when determinism is violated — the engine's core contract —
  // or when the batch's evaluated-design count depends on the thread count.
  return (grid_identical && alg1_identical && alg1_distinct_identical) ? 0 : 1;
}
