// dse_paper: a batch run of the paper's exploration job — the 135-design
// exhaustive grid and the 8-constraint Algorithm 1 batch of
// bench/explore_throughput.cpp — over seeded records with 4 worker threads,
// repeated until the timed region ends.
#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>
#include <utility>

#include "common.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/explore/parallel.hpp"
#include "xbs/pantompkins/pipeline.hpp"

namespace pb {
namespace {

using namespace xbs;
using pantompkins::Stage;

constexpr std::size_t kRecords = 4;
constexpr std::size_t kRecordSamples = 20000;
constexpr unsigned kThreads = 4;
constexpr std::size_t kShardDesigns = 4;
constexpr double kGridConstraint = 99.0;

/// The job's design spaces; building them prices every stage's most
/// aggressive configuration with the energy model.
struct Job {
  std::vector<explore::StageSpace> grid;
  std::vector<explore::Algorithm1Job> alg1;
};

Job make_job(const explore::StageEnergyModel& energy) {
  const auto space_of = [&](Stage s, std::vector<int> lsbs) {
    return explore::StageSpace{
        s, std::move(lsbs),
        energy.stage_energy_reduction(
            s, explore::StageDesign{s, explore::default_lsb_list(s).back()}.arith_config())};
  };
  Job j;
  j.grid = {space_of(Stage::Lpf, {0, 4, 8, 12, 16}), space_of(Stage::Hpf, {0, 8, 16}),
            space_of(Stage::Sqr, {0, 4, 8}), space_of(Stage::Der, {0, 2, 4})};
  for (const double q : {99.9, 99.5, 99.0, 98.5, 98.0, 97.0, 96.0, 95.0}) {
    j.alg1.push_back(explore::Algorithm1Job{
        {space_of(Stage::Lpf, explore::default_lsb_list(Stage::Lpf)),
         space_of(Stage::Hpf, explore::default_lsb_list(Stage::Hpf)),
         space_of(Stage::Mwi, explore::default_lsb_list(Stage::Mwi))},
        explore::ModuleLists{},
        q});
  }
  return j;
}

/// Calls \p f(stage, config) for every stage configuration of the job.
template <class F>
void for_each_stage_config(const Job& j, F f) {
  const auto each = [&f](const explore::StageSpace& sp) {
    for (const int lsb : sp.lsb_list_ascending) {
      f(sp.stage, explore::StageDesign{sp.stage, lsb}.arith_config());
    }
  };
  for (const auto& sp : j.grid) each(sp);
  for (const auto& job : j.alg1) {
    for (const auto& sp : job.spaces) each(sp);
  }
}

u64 fnv(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

u64 design_digest(u64 h, const explore::Design& d) {
  for (const explore::StageDesign& s : d) {
    h = fnv(h, static_cast<u64>(s.stage));
    h = fnv(h, static_cast<u64>(s.lsbs));
    h = fnv(h, static_cast<u64>(s.add_kind));
    h = fnv(h, static_cast<u64>(s.mult_kind));
    h = fnv(h, static_cast<u64>(s.policy));
  }
  return h;
}

/// One digest per grid point and per Algorithm 1 result, bit-exact in every
/// field the job reports; plus the evaluation count and cache counters.
struct Outcome {
  std::vector<u64> points;
  std::vector<u64> bests;
  u64 evaluations = 0;
  u64 cache = 0;
};

Outcome outcome(const explore::GridResult& g, const std::vector<explore::Algorithm1Result>& b) {
  Outcome o;
  o.evaluations = static_cast<u64>(g.evaluations);
  for (const auto& p : g.points) {
    u64 h = design_digest(0xcbf29ce484222325ull, p.design);
    h = fnv(h, std::bit_cast<u64>(p.quality));
    h = fnv(h, std::bit_cast<u64>(p.energy_reduction));
    o.points.push_back(fnv(h, p.satisfied ? 1 : 0));
  }
  for (const auto& r : b) {
    u64 h = design_digest(0xcbf29ce484222325ull, r.best);
    h = fnv(h, std::bit_cast<u64>(r.best_quality));
    h = fnv(h, std::bit_cast<u64>(r.energy_reduction));
    h = fnv(h, static_cast<u64>(r.evaluations));
    o.bests.push_back(fnv(h, r.feasible ? 1 : 0));
    o.evaluations += static_cast<u64>(r.evaluations);
  }
  const auto& c = g.cache;
  o.cache = fnv(fnv(fnv(fnv(fnv(0, c.runs), c.stage_hits), c.stage_recomputes), c.detect_hits),
                c.detect_recomputes);
  return o;
}

/// Mismatching outputs of one pass against the reference.
u64 mismatches(const Outcome& got, const Outcome& want) {
  u64 bad = 0;
  const auto cmp = [&bad](const std::vector<u64>& g, const std::vector<u64>& w) {
    for (std::size_t i = 0; i < std::max(g.size(), w.size()); ++i) {
      if (i >= g.size() || i >= w.size() || g[i] != w[i]) ++bad;
    }
  };
  cmp(got.points, want.points);
  cmp(got.bests, want.bests);
  if (got.evaluations != want.evaluations || got.cache != want.cache) ++bad;
  return bad;
}

/// Wall time of every design evaluation, collected from the engine's
/// worker threads.
class EvalTimes {
 public:
  void add(double s) {
    const std::lock_guard lock(mu_);
    times_.push_back(s);
  }
  std::vector<double> take() {
    const std::lock_guard lock(mu_);
    return std::exchange(times_, {});
  }

 private:
  std::mutex mu_;
  std::vector<double> times_;
};

/// The engine's evaluator, timed per design: the factory hands the engine
/// this wrapper around the AccuracyEvaluator it would otherwise build.
class TimedEvaluator final : public explore::QualityEvaluator {
 public:
  TimedEvaluator(explore::SharedRecords recs, std::shared_ptr<EvalTimes> times)
      : inner_(std::move(recs)), times_(std::move(times)) {}
  [[nodiscard]] std::string_view metric_name() const noexcept override {
    return inner_.metric_name();
  }
  [[nodiscard]] const explore::StageCacheStats* cache_stats() const noexcept override {
    return inner_.cache_stats();
  }

 protected:
  [[nodiscard]] double evaluate_impl(const explore::Design& d) override {
    const double t = now_s();
    const double q = inner_.evaluate(d);
    times_->add(now_s() - t);
    return q;
  }

 private:
  explore::AccuracyEvaluator inner_;
  std::shared_ptr<EvalTimes> times_;
};

std::vector<ecg::DigitizedRecord> load_records(const std::string& dir) {
  BlobReader r(dir + "/dse_inputs.bin");
  std::vector<ecg::DigitizedRecord> recs(r.get<u64>());
  for (auto& rec : recs) {
    rec.fs_hz = r.get<double>();
    rec.gain_adu_per_mv = r.get<double>();
    rec.adu = r.get_vec<i32>();
    for (const u64 p : r.get_vec<u64>()) rec.r_peaks.push_back(p);
  }
  return recs;
}

struct PassLog {
  std::vector<double> pass_rate;  ///< samples/s of each pass
  std::vector<double> pass_cpu;   ///< CPU s per 10^6 samples of each pass
  std::vector<double> pass_s;
  std::vector<double> eval_s;
  std::vector<double> grid_s;
  std::vector<double> alg1_s;
  std::vector<double> grid_util;
  std::vector<double> alg1_util;
  u64 passes = 0;
  u64 ok_passes = 0;
  double hit_rate = 0;
  u64 evaluations = 0;
};

}  // namespace

void gen_dse_paper(const GenArgs& a) {
  std::vector<ecg::DigitizedRecord> recs;
  BlobWriter in;
  in.put<u64>(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    recs.push_back(seeded_record(mix_seed(a.seed, 500 + i), kRecordSamples));
    const ecg::DigitizedRecord& rec = recs.back();
    in.put<double>(rec.fs_hz);
    in.put<double>(rec.gain_adu_per_mv);
    in.put_vec<i32>(rec.adu);
    in.put_vec<u64>(std::vector<u64>(rec.r_peaks.begin(), rec.r_peaks.end()));
  }
  in.save(a.dir + "/dse_inputs.bin");

  // The explore engine is bit-identical across thread counts, so a 1-thread
  // run of the same job is the reference.
  const explore::SharedRecords shared = explore::share_records(recs);
  const explore::EvaluatorFactory factory = [shared] {
    return std::make_unique<explore::AccuracyEvaluator>(shared);
  };
  const explore::StageEnergyModel energy;
  const Job job = make_job(energy);
  explore::ParallelExploreOptions opts;
  opts.threads = 1;
  opts.shard_designs = kShardDesigns;
  Outcome o = outcome(
      explore::exhaustive_explore_parallel(job.grid, explore::ModuleLists{}, factory, energy,
                                           kGridConstraint, opts),
      explore::design_generation_batch(job.alg1, factory, energy, 1));
  if (a.corrupt) o.points[3] ^= 1;  // self-test: one wrong DSE point
  BlobWriter ref;
  ref.put_vec<u64>(o.points);
  ref.put_vec<u64>(o.bests);
  ref.put<u64>(o.evaluations);
  ref.put<u64>(o.cache);
  ref.save(a.dir + "/dse_reference.bin");
}

void run_dse_paper(const RunArgs& a, Report& rep) {
  std::vector<ecg::DigitizedRecord> records = load_records(a.dir);
  Outcome want;
  {
    BlobReader r(a.dir + "/dse_reference.bin");
    want.points = r.get_vec<u64>();
    want.bests = r.get_vec<u64>();
    want.evaluations = r.get<u64>();
    want.cache = r.get<u64>();
  }
  u64 record_samples = 0;
  for (const auto& rec : records) record_samples += rec.adu.size();

  // Set-up: share the records, price the design spaces, compile every stage
  // configuration's tables.
  const auto tables = [] {
    const auto s = arith::table_cache_stats();
    return s.multiplier_models + s.magnitude_tables + s.signed_tables + s.square_tables;
  };
  const double t0 = now_s();
  const u64 tables0 = tables();
  const explore::SharedRecords shared = explore::share_records(std::move(records));
  const auto eval_times = std::make_shared<EvalTimes>();
  const explore::EvaluatorFactory factory = [shared, eval_times] {
    return std::make_unique<TimedEvaluator>(shared, eval_times);
  };
  const explore::StageEnergyModel energy;
  // The energy model prices every stage configuration once (its memo then
  // serves every design of the job); the tables of each are compiled.
  const double t_energy = now_s();
  const Job job = make_job(energy);
  for_each_stage_config(job, [&energy](Stage s, const arith::StageArithConfig& c) {
    (void)energy.stage_energy_fj(s, c);
  });
  const double energy_s = now_s() - t_energy;
  const double t_warm = now_s();
  for_each_stage_config(job, [](Stage s, const arith::StageArithConfig& c) {
    pantompkins::warm_stage_tables(s, c);
  });
  const double warm_s = now_s() - t_warm;
  const u64 tables_setup = tables() - tables0;
  rep.set("setup_s", now_s() - t0, "s");
  if (a.setup_only) return;

  explore::ParallelExploreOptions opts;
  opts.threads = kThreads;
  opts.shard_designs = kShardDesigns;
  const auto pass_loop = [&](SpanLog& log) {
    PassLog p;
    const double t_start = now_s();
    while (now_s() - t_start < a.seconds) {
      const SpanScope pass(log, "dse.pass", p.passes);
      const double t_pass = now_s();
      const double c_pass = cpu_s();
      double t = t_pass;
      double c = c_pass;
      explore::GridResult g;
      {
        const SpanScope s(log, "explore.grid", p.passes);
        g = explore::exhaustive_explore_parallel(job.grid, explore::ModuleLists{}, factory,
                                                 energy, kGridConstraint, opts);
      }
      p.grid_s.push_back(now_s() - t);
      p.grid_util.push_back((cpu_s() - c) / (p.grid_s.back() * kThreads));
      t = now_s();
      c = cpu_s();
      std::vector<explore::Algorithm1Result> b;
      {
        const SpanScope s(log, "explore.alg1", p.passes);
        b = explore::design_generation_batch(job.alg1, factory, energy, kThreads);
      }
      p.alg1_s.push_back(now_s() - t);
      p.alg1_util.push_back((cpu_s() - c) / (p.alg1_s.back() * kThreads));
      const Outcome got = outcome(g, b);
      const u64 bad = mismatches(got, want);
      rep.attempted += got.points.size() + got.bests.size() + 1;
      rep.fail(bad, "DSE results differing from the reference");
      const double pass_s = now_s() - t_pass;
      p.pass_s.push_back(pass_s);
      if (bad == 0) {
        const double msamples = static_cast<double>(got.evaluations * record_samples) / 1e6;
        p.pass_rate.push_back(msamples * 1e6 / pass_s);
        p.pass_cpu.push_back((cpu_s() - c_pass) / msamples);
        ++p.ok_passes;
      }
      p.evaluations = got.evaluations;
      p.hit_rate = g.cache.stage_hit_rate();
      ++p.passes;
    }
    p.eval_s = eval_times->take();
    return p;
  };

  SpanLog untraced(false);
  (void)eval_times->take();
  const u64 tables_before_timed = tables();
  const PassLog p = pass_loop(untraced);
  char line[256];
  std::snprintf(line, sizeof line,
                "dse_paper: %llu passes, %zu design evaluations (p99.9 has %zu beyond); median "
                "CPU use grid %.2f, Algorithm 1 %.2f of %u threads",
                static_cast<unsigned long long>(p.passes), p.eval_s.size(), p.eval_s.size() / 1000,
                median(p.grid_util), median(p.alg1_util), kThreads);
  rep.note(line);
  if (p.ok_passes == 0) rep.fail(1, "no exploration pass matched the reference");

  if (!a.trace) {
    rep.set("samples_per_s", median(p.pass_rate), "1/s");
    rep.set("cpu_s_per_msample", median(p.pass_cpu), "s");
    rep.set("event_p50_ms", median(p.eval_s) * 1e3, "ms");
    rep.note("event_p999_ms " + std::to_string(percentile(p.eval_s, 0.999) * 1e3));
    rep.set("close_p50_ms", median(p.pass_s) * 1e3, "ms");
    rep.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return;
  }

  SpanLog log(true);
  const PassLog pt = pass_loop(log);
  rep.set("arith.warm_s", warm_s, "s");
  rep.set("arith.tables_built", static_cast<double>(tables_setup), "count");
  rep.set("arith.tables_built_timed", static_cast<double>(tables() - tables_before_timed),
          "count");
  rep.set("tail.event_p999_ms", percentile(pt.eval_s, 0.999) * 1e3, "ms");
  rep.set("explore.grid_s", median(pt.grid_s), "s");
  rep.set("explore.alg1_s", median(pt.alg1_s), "s");
  rep.set("explore.grid_cpu_util", median(pt.grid_util), "1");
  rep.set("explore.alg1_cpu_util", median(pt.alg1_util), "1");
  rep.set("explore.evaluations", static_cast<double>(pt.evaluations), "count");
  rep.set("explore.stage_hit_rate", pt.hit_rate, "1");
  rep.set("explore.energy_s", energy_s, "s");
  const double e2e = median(p.pass_cpu);
  rep.set("trace.overhead_pct", (median(pt.pass_cpu) - e2e) / e2e * 100.0, "%");
  write_spans(log, a.dir + "/spans.tsv", rep);
}

}  // namespace pb
