// archive_exact: a closed loop that re-analyses stored recordings. The
// generator writes a seeded XBS1 archive; the program replays it through
// store::replay_record into a StreamServer, one page (1,024 samples) per
// chunk, on the exact datapath. Four producer threads each own one session
// at a time; each drains its record's events after close.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/store/replay.hpp"
#include "xbs/store/store.hpp"
#include "xbs/stream/server.hpp"

namespace pb {
namespace {

using namespace xbs;

constexpr std::size_t kRecords = 32;
constexpr std::size_t kRecordSamples = 20000;  ///< the paper's record unit
constexpr std::size_t kChunk = store::kSamplesPerPage;
constexpr unsigned kProducers = 4;
constexpr unsigned kWorkers = 3;
constexpr std::size_t kEventCapacity = 1u << 14;  ///< holds a whole record's events

struct Plan {
  std::vector<std::string> paths;
  std::vector<u64> samples;
  std::vector<u64> ref_count;
  std::vector<u64> ref_digest;
  std::vector<u32> order;  ///< seeded replay order, cycled
};

std::string record_path(const std::string& dir, std::size_t i) {
  return dir + "/archive/rec" + std::to_string(i) + ".xbs";
}

Plan load_plan(const std::string& dir) {
  Plan p;
  BlobReader r(dir + "/archive_plan.bin");
  const u64 n = r.get<u64>();
  for (u64 i = 0; i < n; ++i) {
    p.paths.push_back(record_path(dir, i));
    p.samples.push_back(r.get<u64>());
    p.ref_count.push_back(r.get<u64>());
    p.ref_digest.push_back(r.get<u64>());
  }
  p.order = r.get_vec<u32>();
  if (p.paths.empty() || p.order.empty()) throw std::runtime_error("archive_exact: empty plan");
  return p;
}

u64 tables_total() {
  const auto s = arith::table_cache_stats();
  return s.multiplier_models + s.magnitude_tables + s.signed_tables + s.square_tables;
}

stream::SessionSpec exact_spec() {
  stream::SessionSpec spec;
  spec.config = pantompkins::PipelineConfig::accurate();
  spec.keep_detection = false;
  return spec;
}

/// What one producer thread saw during a timed pass.
struct ProducerLog {
  explicit ProducerLog(bool traced) : spans(traced) {}
  u64 records = 0;
  u64 samples = 0;
  u64 chunks = 0;
  u64 events_expected = 0;
  u64 bad_events = 0;
  double t_last = 0;
  std::vector<double> record_s;
  std::vector<double> close_s;
  std::vector<double> open_s;
  std::vector<double> replay_s;
  SpanLog spans;
};

/// Live sessions per shard, tracked from the ids the server hands out; the
/// skew (max over mean) is sampled at every open.
class ShardSkew {
 public:
  explicit ShardSkew(unsigned shards) : live_(shards, 0) {}
  void opened(stream::SessionId id) {
    const std::lock_guard lock(mu_);
    ++live_[id.slot % live_.size()];
    ++total_;
    const double mean = static_cast<double>(total_) / static_cast<double>(live_.size());
    skew_sum_ += static_cast<double>(*std::max_element(live_.begin(), live_.end())) / mean;
    ++samples_;
  }
  void released(stream::SessionId id) {
    const std::lock_guard lock(mu_);
    --live_[id.slot % live_.size()];
    --total_;
  }
  [[nodiscard]] double mean_skew() const {
    return samples_ == 0 ? 0.0 : skew_sum_ / static_cast<double>(samples_);
  }

 private:
  std::mutex mu_;
  std::vector<u64> live_;
  u64 total_ = 0;
  double skew_sum_ = 0;
  u64 samples_ = 0;
};

constexpr double kWindow = 0.5;  ///< throughput and CPU are sampled per window

struct PassResult {
  double wall = 0;
  double cpu = 0;
  double worker_cpu = 0;
  std::vector<double> window_rate;  ///< samples/s per window
  std::vector<double> window_cpu;   ///< CPU s per 10^6 samples per window
  std::vector<ProducerLog> logs;
  double skew = 0;
};

/// One timed pass: kProducers threads replay records in the seeded order
/// until \p seconds have elapsed.
PassResult timed_pass(const Plan& plan, stream::StreamServer& server,
                      const std::vector<pid_t>& worker_tids, double seconds, bool traced,
                      Report& rep) {
  PassResult out;
  for (unsigned i = 0; i < kProducers; ++i) out.logs.emplace_back(traced);
  ShardSkew skew(server.shards());
  std::atomic<u64> next_job{0};
  std::atomic<u64> samples_done{0};
  std::atomic<u64> errors{0};
  std::atomic<int> go{0};
  double t_end = 0;
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ProducerLog& L = out.logs[p];
      std::vector<stream::Event> evs;
      std::vector<EvRec> recs;
      go.wait(0);
      try {
        while (now_s() < t_end) {
          const u64 job = next_job.fetch_add(1);
          const std::size_t rec = plan.order[job % plan.order.size()];
          const SpanScope whole(L.spans, "archive.record", job);
          const double t0 = now_s();
          double t = t0;
          const auto lap = [&t] {
            const double n = now_s();
            const double d = n - t;
            t = n;
            return d;
          };
          std::optional<store::RecordReader> reader;
          {
            const SpanScope s(L.spans, "store.open", job);
            reader.emplace(plan.paths[rec]);
          }
          L.open_s.push_back(lap());
          stream::SessionId sid;
          {
            const SpanScope s(L.spans, "stream.open", job);
            sid = server.open(exact_spec());
          }
          skew.opened(sid);
          (void)lap();
          store::ReplayResult res;
          {
            const SpanScope s(L.spans, "store.replay", job);
            res = store::replay_record(*reader, server, sid, kChunk);
          }
          L.replay_s.push_back(lap());
          stream::SessionState st;
          {
            const SpanScope s(L.spans, "stream.close", job);
            st = server.close(sid);
          }
          L.close_s.push_back(lap());
          evs.clear();
          {
            const SpanScope s(L.spans, "stream.drain", job);
            (void)server.drain_events(sid, evs);
          }
          const auto ss = server.session_stats(sid);
          {
            const SpanScope s(L.spans, "stream.release", job);
            (void)server.release(sid);
          }
          skew.released(sid);
          const double done = now_s();
          L.record_s.push_back(done - t0);
          L.t_last = done;

          recs.clear();
          for (const stream::Event& e : evs) recs.push_back(to_rec(e, 0));
          const bool ok = res.status == stream::PushResult::Ok &&
                          res.samples == plan.samples[rec] &&
                          st == stream::SessionState::Closed && !reader->quarantined() &&
                          ss.events_dropped == 0 && ss.dropped_chunks == 0 &&
                          ss.rejected_chunks == 0 && recs.size() == plan.ref_count[rec] &&
                          digest(recs) == plan.ref_digest[rec];
          ++L.records;
          L.chunks += res.chunks;
          L.events_expected += plan.ref_count[rec];
          if (ok) {
            L.samples += res.samples;
            samples_done.fetch_add(res.samples, std::memory_order_relaxed);
          } else {
            L.bad_events += std::max<u64>(1, plan.ref_count[rec]);
          }
        }
      } catch (const std::exception&) {
        errors.fetch_add(1);  // a reader the store refused, or a server refusal
      }
    });
  }
  const auto worker_cpu = [&] {
    double s = 0;
    for (const pid_t t : worker_tids) s += task_cpu_s(t);
    return s;
  };
  const double w0 = worker_cpu();
  const double c0 = cpu_s();
  const double t0 = now_s();
  t_end = t0 + seconds;
  go.store(1);
  go.notify_all();
  // Sample throughput and CPU per window while the producers run; the
  // windows' medians shrug off a transient stall of the shared host.
  u64 n_prev = 0;
  double c_prev = c0;
  double t_prev = t0;
  for (double w = t0 + kWindow; w <= t_end + 1e-9; w += kWindow) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(w))));
    const u64 n = samples_done.load(std::memory_order_relaxed);
    const double c = cpu_s();
    const double t = now_s();
    if (n > n_prev) {
      out.window_rate.push_back(static_cast<double>(n - n_prev) / (t - t_prev));
      out.window_cpu.push_back((c - c_prev) / (static_cast<double>(n - n_prev) / 1e6));
    }
    n_prev = n;
    c_prev = c;
    t_prev = t;
  }
  for (std::thread& t : producers) t.join();
  double t_last = t0;
  for (const ProducerLog& L : out.logs) t_last = std::max(t_last, L.t_last);
  out.wall = t_last - t0;
  out.cpu = cpu_s() - c0;
  out.worker_cpu = worker_cpu() - w0;
  out.skew = skew.mean_skew();
  rep.fail(errors.load(), "producers stopped by an exception");
  for (const ProducerLog& L : out.logs) {
    rep.attempted += L.chunks + L.events_expected + L.records;
    rep.fail(L.bad_events, "re-analysed records differing from the reference");
  }
  return out;
}

template <class F>
std::vector<double> gather(const PassResult& p, F field) {
  std::vector<double> v;
  for (const ProducerLog& L : p.logs) {
    const auto& x = L.*field;
    v.insert(v.end(), x.begin(), x.end());
  }
  return v;
}

u64 total_samples(const PassResult& p) {
  u64 n = 0;
  for (const ProducerLog& L : p.logs) n += L.samples;
  return n;
}

double cpu_per_msample(const PassResult& p) {
  return p.cpu / (static_cast<double>(total_samples(p)) / 1e6);
}

}  // namespace

void gen_archive_exact(const GenArgs& a) {
  std::filesystem::create_directories(a.dir + "/archive");
  BlobWriter plan;
  plan.put<u64>(kRecords);
  const auto cfg = pantompkins::PipelineConfig::accurate();
  std::vector<u32> order(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    const ecg::DigitizedRecord rec = seeded_record(mix_seed(a.seed, 300 + i), kRecordSamples);
    store::write_record(record_path(a.dir, i), rec);
    const std::vector<EvRec> evs = reference_events(cfg, rec.adu, kChunk);
    plan.put<u64>(rec.adu.size());
    plan.put<u64>(evs.size());
    plan.put<u64>(digest(evs) ^ (a.corrupt && i == 0 ? 1u : 0u));
    order[i] = static_cast<u32>(i);
  }
  Rng rng(mix_seed(a.seed, 400));
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<i64>(i)))]);
  }
  plan.put_vec<u32>(order);
  plan.save(a.dir + "/archive_plan.bin");
}

void run_archive_exact(const RunArgs& a, Report& rep) {
  const Plan plan = load_plan(a.dir);

  // Set-up: the server and its worker threads, and one verifying open of
  // every archive record.
  const double t0 = now_s();
  const u64 tables0 = tables_total();
  const std::vector<pid_t> before = task_ids();
  stream::StreamServer::Options so;
  so.max_sessions = kProducers * 2;
  so.queue_capacity_chunks = 32;
  so.workers = kWorkers;
  so.event_queue_capacity = kEventCapacity;
  // The workers keep to CPUs 1..3 (threads inherit their creator's
  // affinity) and the producers to CPU 0, so a producer never preempts a
  // worker mid-record.
  pin_to_cpus(1, -1);
  stream::StreamServer server(so);
  pin_to_cpus(0, 0);
  const std::vector<pid_t> after = task_ids();
  std::vector<pid_t> workers;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(workers));
  const double t_warm = now_s();
  pantompkins::warm_pipeline_tables(pantompkins::PipelineConfig::accurate());
  const double warm_s = now_s() - t_warm;
  std::vector<store::RecordReader> readers;
  u64 pages = 0;
  for (const std::string& path : plan.paths) {
    readers.emplace_back(path);
    pages += readers.back().page_count();
  }
  const u64 tables_setup = tables_total() - tables0;
  rep.set("setup_s", now_s() - t0, "s");
  if (a.setup_only) return;

  const PassResult p = timed_pass(plan, server, workers, a.seconds, false, rep);
  const auto record_s = gather(p, &ProducerLog::record_s);
  const auto close_s = gather(p, &ProducerLog::close_s);
  char line[256];
  std::snprintf(line, sizeof line,
                "archive_exact: %zu records re-analysed, %llu samples; record latency from %zu "
                "samples (p99.9 has %zu beyond); worker CPU %.2f of %u cores",
                record_s.size(), static_cast<unsigned long long>(total_samples(p)),
                record_s.size(), record_s.size() / 1000, p.worker_cpu / p.wall, kWorkers);
  rep.note(line);
  std::snprintf(line, sizeof line,
                "whole pass: %.6g samples/s, %.6g CPU s per 10^6 samples; event_p999_ms %.4f",
                static_cast<double>(total_samples(p)) / p.wall, cpu_per_msample(p),
                percentile(record_s, 0.999) * 1e3);
  rep.note(line);
  const auto ss = server.stats();
  rep.fail(ss.faulted, "faulted sessions");
  rep.fail(ss.rejected_chunks + ss.dropped_chunks, "rejected or dropped chunks");
  if (total_samples(p) == 0) rep.fail(1, "no record re-analysed");

  if (!a.trace) {
    rep.set("samples_per_s", median(p.window_rate), "1/s");
    rep.set("cpu_s_per_msample", median(p.window_cpu), "s");
    rep.set("event_p50_ms", percentile(record_s, 0.5) * 1e3, "ms");
    rep.set("close_p50_ms", percentile(close_s, 0.5) * 1e3, "ms");
    rep.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return;
  }

  // Traced run: the same pass with spans on, a scrub of the archive, and
  // the ladder over every archive record once.
  const u64 tables_before_timed = tables_total();
  const PassResult pt = timed_pass(plan, server, workers, a.seconds, true, rep);
  rep.set("arith.warm_s", warm_s, "s");
  rep.set("arith.tables_built", static_cast<double>(tables_setup), "count");
  rep.set("arith.tables_built_timed", static_cast<double>(tables_total() - tables_before_timed),
          "count");
  rep.set("tail.event_p999_ms", percentile(gather(pt, &ProducerLog::record_s), 0.999) * 1e3, "ms");
  rep.set("store.open_ms", median(gather(pt, &ProducerLog::open_s)) * 1e3, "ms");
  rep.set("store.replay_s", median(gather(pt, &ProducerLog::replay_s)), "s");
  rep.set("store.pages", static_cast<double>(pages), "count");
  double bytes = 0;
  const double t_scrub = now_s();
  for (const store::RecordReader& r : readers) {
    const auto report = r.scrub();
    rep.fail(report.faults.size(), "archive pages failing their CRC");
    bytes += static_cast<double>(r.file_bytes());
  }
  rep.set("store.scrub_gb_per_s", bytes / (now_s() - t_scrub) / 1e9, "GB/s");
  rep.set("stream.worker_util", pt.worker_cpu / (pt.wall * kWorkers), "1");
  rep.set("stream.shard_skew", pt.skew, "1");
  rep.set("stream.close_ms_p50", median(gather(pt, &ProducerLog::close_s)) * 1e3, "ms");
  const auto fin = server.stats();
  rep.set("stream.peak_queued_chunks", static_cast<double>(fin.peak_queued_chunks), "count");
  rep.set("stream.rejected_chunks", static_cast<double>(fin.rejected_chunks), "count");
  rep.set("stream.dropped_chunks", static_cast<double>(fin.dropped_chunks), "count");
  rep.set("stream.faulted", static_cast<double>(fin.faulted), "count");
  const double e2e = median(p.window_cpu);
  rep.set("trace.overhead_pct", (median(pt.window_cpu) - e2e) / e2e * 100.0, "%");

  // Ladder: rungs 1-3 from the shared measure, then the store rung — the
  // same one-producer one-worker server fed by replay_record.
  std::vector<ecg::DigitizedRecord> recs;
  for (store::RecordReader& r : readers) recs.push_back(r.record());
  std::vector<LadderInput> ladder_in;
  for (const auto& r : recs) {
    ladder_in.push_back(LadderInput{pantompkins::PipelineConfig::accurate(), r.adu});
  }
  const LadderRungs l = measure_ladder(ladder_in, kChunk);
  report_ladder_layers(l, rep);
  double store_cpu = 0;
  {
    stream::StreamServer::Options o1 = so;
    o1.workers = 1;
    o1.shards = 1;
    stream::StreamServer one(o1);
    std::vector<stream::Event> evs;
    const double c0 = cpu_s();
    for (const std::string& path : plan.paths) {
      store::RecordReader r(path);
      const auto sid = one.open(exact_spec());
      (void)store::replay_record(r, one, sid, kChunk);
      (void)one.close(sid);
      evs.clear();
      (void)one.drain_events(sid, evs);
      (void)one.release(sid);
    }
    store_cpu = cpu_s() - c0;
  }
  const double per_sample = 1e9 / static_cast<double>(l.samples);
  const double store_ns = store_cpu * per_sample;
  const double e2e_ns = e2e * 1e3;
  rep.set("ladder.unattributed_pct", (e2e_ns - store_ns) / e2e_ns * 100.0, "%");
  std::snprintf(line, sizeof line,
                "ladder ns/sample: stages+detector %.1f | Session %.1f | StreamServer 1P1W %.1f | "
                "+ store replay %.1f | untraced cpu_s_per_msample %.1f",
                l.rung1_s() * per_sample, l.session_s * per_sample, l.server_s * per_sample,
                store_ns, e2e_ns);
  rep.note(line);
  SpanLog all(true);
  for (const ProducerLog& L : pt.logs) all.append(L.spans);
  write_spans(all, a.dir + "/spans.tsv", rep);
}

}  // namespace pb
