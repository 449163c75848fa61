// Streaming serving-layer throughput: N concurrent Sessions fed chunk by
// chunk through StreamServer::push (the copying ingest), a zero-copy
// loaned-buffer drive over the sharded StreamServer (acquire_buffer -> fill
// in place -> commit, no per-chunk copy or allocation anywhere), plus a
// session-churn scenario (slots closed, released and re-provisioned while
// every other stream keeps flowing). Measures aggregate sessions x
// samples/sec and per-chunk ingest latency percentiles on the exact datapath
// and on the paper's B9 approximate configuration, and emits one JSON object
// so future PRs have a machine-readable baseline (committed as
// BENCH_stream.json).
//
//   ./bench_stream_throughput [--sessions N] [--samples M] [--chunk C]
//                             [--threads T] [--shards S] [--iters K]
//                             [--rotations R]
//
// Each path reports the best of K drives (fresh server and sessions per
// drive; StreamServer::open pre-warms the shared multiplier/coefficient LUTs
// outside the timed region, as in any long-running serving process). Beat
// counts are printed so the bench doubles as an end-to-end sanity check of
// the online detector; the zero-copy and churn scenarios additionally
// require zero faults/rejects and a clean slot ledger.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/stream/server.hpp"

namespace {

using namespace xbs;

int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct DriveResult {
  unsigned threads = 0;
  u64 samples = 0;
  u64 beats = 0;
  double wall_s = 0.0;
  double p50_chunk_s = 0.0;  ///< median per-chunk ingest latency (incl. backpressure)
  double p99_chunk_s = 0.0;
  double max_chunk_s = 0.0;

  [[nodiscard]] double samples_per_sec() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(samples) / wall_s : 0.0;
  }
};

/// Copying drive: one session per feed, each feed split into chunk-sized
/// blocking pushes delivered round-robin, then every session closed. The
/// timed region is ingest through close-completion; worker spawn and session
/// construction stay outside it. threads == 0 picks hardware concurrency,
/// clamped to the session count.
DriveResult drive(const stream::SessionSpec& spec, std::span<const std::vector<i32>> feeds,
                  std::size_t chunk, unsigned threads) {
  using Clock = std::chrono::steady_clock;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(feeds.size(), 1)));
  stream::StreamServer server({.max_sessions = std::max<std::size_t>(feeds.size(), 1),
                               .queue_capacity_chunks = 64,
                               .max_chunk_samples = 0,
                               .workers = threads});
  std::vector<stream::SessionId> ids;
  ids.reserve(feeds.size());
  for (std::size_t i = 0; i < feeds.size(); ++i) ids.push_back(server.open(spec));

  DriveResult out;
  out.threads = threads;
  std::vector<double> lats;
  const Clock::time_point t0 = Clock::now();
  // Round-robin ingest across all sessions; a refused chunk (a quarantined
  // session) ends that feed while every other stream keeps flowing.
  std::vector<std::size_t> pos(ids.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::vector<i32>& feed = feeds[k];
      if (pos[k] >= feed.size()) continue;
      const std::size_t len = std::min(chunk, feed.size() - pos[k]);
      const Clock::time_point c0 = Clock::now();
      const stream::PushResult r =
          server.push(ids[k], std::span<const i32>(feed).subspan(pos[k], len));
      lats.push_back(std::chrono::duration<double>(Clock::now() - c0).count());
      if (r == stream::PushResult::Ok) {
        pos[k] += len;
        any = true;
      } else {
        pos[k] = feed.size();
      }
    }
  }
  for (const stream::SessionId id : ids) (void)server.close(id);
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const stream::StreamServer::ServerStats st = server.stats();
  out.samples = st.samples;
  out.beats = st.beats;
  std::sort(lats.begin(), lats.end());
  out.p50_chunk_s = percentile(lats, 0.50);
  out.p99_chunk_s = percentile(lats, 0.99);
  out.max_chunk_s = lats.empty() ? 0.0 : lats.back();
  return out;
}

DriveResult best_of(const stream::SessionSpec& spec, std::span<const std::vector<i32>> feeds,
                    std::size_t chunk, unsigned threads, int iters) {
  DriveResult best{};
  for (int it = 0; it < iters; ++it) {
    const DriveResult r = drive(spec, feeds, chunk, threads);
    if (it == 0 || r.samples_per_sec() > best.samples_per_sec()) best = r;
  }
  return best;
}

struct ChurnResult {
  double wall_s = 0.0;
  stream::StreamServer::ServerStats stats{};

  [[nodiscard]] double samples_per_sec() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(stats.samples) / wall_s : 0.0;
  }
};

struct ZeroCopyResult {
  double samples_per_sec = 0.0;
  bool clean = true;       ///< no refusals, no faults, every ledger closed
  unsigned shards = 0;     ///< resolved shard count (0 requested = auto)
};

/// Zero-copy drive: every chunk is acquired from the session's buffer ring,
/// filled in place, and committed — the ingest path a memory-mapped ADC
/// front-end would use. Best-of-iters samples/sec.
ZeroCopyResult zerocopy_run(const stream::SessionSpec& spec,
                            std::span<const std::vector<i32>> feeds, std::size_t chunk,
                            unsigned threads, unsigned shards, int iters) {
  using Clock = std::chrono::steady_clock;
  ZeroCopyResult out;
  bool& clean = out.clean;
  double& best = out.samples_per_sec;
  for (int it = 0; it < iters; ++it) {
    stream::StreamServer server({.max_sessions = feeds.size(),
                                 .queue_capacity_chunks = 64,
                                 .max_chunk_samples = 0,
                                 .workers = threads,
                                 .shards = shards});
    out.shards = server.shards();
    std::vector<stream::SessionId> ids;
    ids.reserve(feeds.size());
    for (std::size_t i = 0; i < feeds.size(); ++i) ids.push_back(server.open(spec));

    const Clock::time_point t0 = Clock::now();
    std::vector<std::size_t> pos(feeds.size(), 0);
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::vector<i32>& feed = feeds[k];
        if (pos[k] >= feed.size()) continue;
        const std::size_t len = std::min(chunk, feed.size() - pos[k]);
        stream::ChunkLoan loan;
        if (server.acquire_buffer(ids[k], len, loan) != stream::PushResult::Ok) {
          clean = false;
          pos[k] = feed.size();
          continue;
        }
        // "Fill in place": the producer writes straight into the loaned
        // buffer (here a copy stands in for the ADC DMA write).
        std::copy_n(feed.begin() + static_cast<std::ptrdiff_t>(pos[k]), len,
                    loan.data().begin());
        if (server.commit(loan) != stream::PushResult::Ok) clean = false;
        pos[k] += len;
        any = true;
      }
    }
    u64 samples = 0;
    for (const stream::SessionId id : ids) {
      if (server.close(id) != stream::SessionState::Closed) clean = false;
      const auto st = server.session_stats(id);
      samples += st.samples;
      if (st.beats == 0 || st.rejected_chunks != 0 || st.dropped_chunks != 0 ||
          st.chunks_in != st.chunks_processed + st.queued_chunks + st.dropped_chunks) {
        clean = false;
      }
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (wall > 0.0) best = std::max(best, static_cast<double>(samples) / wall);
  }
  return out;
}

/// Session churn over a live server: every slot serves `rotations`
/// consecutive connections — stream to end-of-record, close, release, open a
/// fresh session on the freed slot — while all other slots keep streaming.
ChurnResult churn_run(const stream::SessionSpec& spec,
                      std::span<const std::vector<i32>> feeds, std::size_t chunk,
                      unsigned threads, unsigned shards, int rotations) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = feeds.size();
  stream::StreamServer server({.max_sessions = n,
                               .queue_capacity_chunks = 32,
                               .max_chunk_samples = 0,
                               .workers = threads,
                               .shards = shards});
  const Clock::time_point t0 = Clock::now();
  std::vector<stream::SessionId> ids(n);
  std::vector<std::size_t> pos(n, 0);
  std::vector<int> served(n, 0);
  for (std::size_t i = 0; i < n; ++i) ids[i] = server.open(spec);
  std::size_t live = n;
  while (live > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (served[i] >= rotations) continue;
      const std::vector<i32>& feed = feeds[i];
      if (pos[i] >= feed.size()) {
        // End of this connection: retire the slot and re-provision it.
        (void)server.close(ids[i]);
        (void)server.release(ids[i]);
        if (++served[i] >= rotations) {
          --live;
          continue;
        }
        ids[i] = server.open(spec);
        pos[i] = 0;
        continue;
      }
      const std::size_t len = std::min(chunk, feed.size() - pos[i]);
      (void)server.push(ids[i], std::span<const i32>(feed).subspan(pos[i], len));
      pos[i] += len;
    }
  }
  ChurnResult out;
  out.stats = server.stats();  // all slots released: totals are retired
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int sessions = std::max(1, arg_int(argc, argv, "--sessions", 16));
  const int samples = std::max(1000, arg_int(argc, argv, "--samples", 20000));
  const auto chunk = static_cast<std::size_t>(std::max(1, arg_int(argc, argv, "--chunk", 64)));
  const auto threads = static_cast<unsigned>(std::max(0, arg_int(argc, argv, "--threads", 0)));
  const auto shards = static_cast<unsigned>(std::max(0, arg_int(argc, argv, "--shards", 0)));
  const int iters = std::max(1, arg_int(argc, argv, "--iters", 3));
  const int rotations = std::max(1, arg_int(argc, argv, "--rotations", 3));

  std::vector<std::vector<i32>> feeds;
  feeds.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    feeds.push_back(
        ecg::nsrdb_like_digitized(i, static_cast<std::size_t>(samples)).adu);
  }

  // Serving mode: events only, no cumulative per-session result retention.
  stream::SessionSpec exact_spec;
  exact_spec.keep_detection = false;
  stream::SessionSpec b9_spec = exact_spec;
  b9_spec.config = pantompkins::PipelineConfig::from_lsbs({10, 12, 2, 8, 16});

  const auto exact = best_of(exact_spec, feeds, chunk, threads, iters);
  const auto b9 = best_of(b9_spec, feeds, chunk, threads, iters);
  const ZeroCopyResult zc =
      zerocopy_run(exact_spec, feeds, chunk, threads, shards, iters);
  const ChurnResult churn = churn_run(b9_spec, feeds, chunk, threads, shards, rotations);

  std::printf(
      "{\n"
      "  \"bench\": \"stream_throughput\",\n"
      "  \"isa\": \"%.*s\",\n"
      "  \"workload\": \"nsrdb_like_full_pipeline_online_qrs\",\n"
      "  \"sessions\": %d,\n"
      "  \"samples_per_session\": %d,\n"
      "  \"chunk_samples\": %zu,\n"
      "  \"threads\": %u,\n"
      "  \"iters\": %d,\n"
      "  \"exact_samples_per_sec\": %.0f,\n"
      "  \"exact_chunk_p50_us\": %.2f,\n"
      "  \"exact_chunk_p99_us\": %.2f,\n"
      "  \"exact_chunk_max_us\": %.2f,\n"
      "  \"exact_beats\": %llu,\n"
      "  \"b9_samples_per_sec\": %.0f,\n"
      "  \"b9_chunk_p50_us\": %.2f,\n"
      "  \"b9_chunk_p99_us\": %.2f,\n"
      "  \"b9_chunk_max_us\": %.2f,\n"
      "  \"b9_beats\": %llu,\n"
      "  \"realtime_sessions_supported_exact\": %.0f,\n"
      "  \"realtime_sessions_supported_b9\": %.0f,\n"
      "  \"shards\": %u,\n"
      "  \"exact_zerocopy_samples_per_sec\": %.0f,\n"
      "  \"churn_rotations_per_slot\": %d,\n"
      "  \"churn_connections_served\": %llu,\n"
      "  \"churn_b9_samples_per_sec\": %.0f,\n"
      "  \"churn_beats\": %llu,\n"
      "  \"churn_dropped_chunks\": %llu,\n"
      "  \"churn_peak_queue_chunks\": %llu,\n"
      "  \"churn_faulted_sessions\": %llu\n"
      "}\n",
      static_cast<int>(to_string(arith::kernel_isa().selected).size()),
      to_string(arith::kernel_isa().selected).data(),
      sessions, samples, chunk, exact.threads, iters, exact.samples_per_sec(),
      exact.p50_chunk_s * 1e6, exact.p99_chunk_s * 1e6, exact.max_chunk_s * 1e6,
      static_cast<unsigned long long>(exact.beats), b9.samples_per_sec(),
      b9.p50_chunk_s * 1e6, b9.p99_chunk_s * 1e6, b9.max_chunk_s * 1e6,
      static_cast<unsigned long long>(b9.beats),
      exact.samples_per_sec() / 200.0,  // 200 Hz ECG streams
      b9.samples_per_sec() / 200.0, zc.shards, zc.samples_per_sec, rotations,
      static_cast<unsigned long long>(churn.stats.sessions_released),
      churn.samples_per_sec(), static_cast<unsigned long long>(churn.stats.beats),
      static_cast<unsigned long long>(churn.stats.dropped_chunks),
      static_cast<unsigned long long>(churn.stats.peak_queued_chunks),
      static_cast<unsigned long long>(churn.stats.faulted));

  // Non-zero exit when the online detector found no beats (the serving layer
  // would be silently broken), when the zero-copy drive refused a chunk or
  // left a dirty ledger, when churn leaked a slot, or when lifecycle work
  // faulted, rejected or dropped traffic on a lossless feed.
  const bool churn_clean =
      churn.stats.beats > 0 && churn.stats.faulted == 0 && churn.stats.open == 0 &&
      churn.stats.dropped_chunks == 0 && churn.stats.rejected_chunks == 0 &&
      churn.stats.sessions_released ==
          static_cast<u64>(sessions) * static_cast<u64>(rotations);
  return (exact.beats > 0 && b9.beats > 0 && zc.clean && churn_clean) ? 0 : 1;
}
