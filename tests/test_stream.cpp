// Streaming session API tests: chunk invariance (any chunking of a record
// through stream::Session is bit-identical to the whole-record batch
// pipeline), online event semantics, parameter validation, and the
// StreamServer serving layer (session lifecycle, backpressure, fault
// isolation / quarantine).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "xbs/common/rng.hpp"
#include "xbs/common/sync.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/stream/server.hpp"
#include "xbs/stream/session.hpp"

namespace xbs::stream {
namespace {

using pantompkins::PanTompkinsPipeline;
using pantompkins::PipelineConfig;
using pantompkins::PipelineResult;
using pantompkins::Stage;

/// Split sizes for a record: fixed size (0 = whole record) or, with
/// randomize, a seeded sequence of ragged chunk lengths in [1, 97].
std::vector<std::size_t> chunk_plan(std::size_t n, std::size_t fixed, u64 seed = 0) {
  std::vector<std::size_t> plan;
  if (fixed > 0) {
    for (std::size_t at = 0; at < n; at += fixed) plan.push_back(std::min(fixed, n - at));
    return plan;
  }
  if (seed == 0) {
    plan.push_back(n);  // whole record as one chunk
    return plan;
  }
  Rng rng(seed);
  std::size_t at = 0;
  while (at < n) {
    const auto len = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 97)), n - at);
    plan.push_back(len);
    at += len;
  }
  return plan;
}

/// Stream the record through a Session with the given chunk plan and return
/// it in full-retention mode for comparison against the batch pipeline.
Session stream_record(const PipelineConfig& cfg, std::span<const i32> adu,
                      const std::vector<std::size_t>& plan) {
  SessionSpec spec;
  spec.config = cfg;
  spec.keep_signals = true;
  Session s(std::move(spec));
  std::size_t at = 0;
  for (const std::size_t len : plan) {
    (void)s.push(adu.subspan(at, len));
    at += len;
  }
  EXPECT_EQ(at, adu.size());
  (void)s.flush();
  return s;
}

void expect_bit_identical(const Session& s, const PipelineResult& batch,
                          const std::string& what) {
  EXPECT_EQ(s.stage_signal(Stage::Lpf), batch.lpf) << what;
  EXPECT_EQ(s.stage_signal(Stage::Hpf), batch.hpf) << what;
  EXPECT_EQ(s.stage_signal(Stage::Der), batch.der) << what;
  EXPECT_EQ(s.stage_signal(Stage::Sqr), batch.sqr) << what;
  EXPECT_EQ(s.stage_signal(Stage::Mwi), batch.mwi) << what;
  EXPECT_EQ(s.detection().peaks, batch.detection.peaks) << what;
  ASSERT_EQ(s.detection().trace.size(), batch.detection.trace.size()) << what;
  for (std::size_t i = 0; i < batch.detection.trace.size(); ++i) {
    EXPECT_EQ(s.detection().trace[i], batch.detection.trace[i]) << what << " trace[" << i << "]";
  }
  const auto ops = s.ops();
  for (int st = 0; st < pantompkins::kNumStages; ++st) {
    const auto su = static_cast<std::size_t>(st);
    EXPECT_EQ(ops[su], batch.ops[su]) << what << " ops stage " << st;
  }
}

TEST(StreamChunkInvariance, EveryPaperConfigAnyChunking) {
  const auto rec = ecg::nsrdb_like_digitized(0, 3000);

  std::vector<std::pair<std::string, PipelineConfig>> configs;
  configs.emplace_back("accurate", PipelineConfig::accurate());
  for (const auto& named : core::fig12_b_configs()) {
    configs.emplace_back(std::string(named.name), PipelineConfig::from_lsbs(named.lsbs));
  }

  for (const auto& [name, cfg] : configs) {
    const PipelineResult batch = PanTompkinsPipeline(cfg).run(rec.adu);
    // Fixed sizes 1 / 7 / 29 / 31 / 32 / 33 / 64 (around the MWI's 29-sample
    // and the HPF's 31-sample carried history), the whole record as one
    // chunk, and a seeded ragged split: all must reproduce the batch result
    // bit for bit.
    const std::array<std::pair<std::size_t, u64>, 9> plans = {
        {{1, 0}, {7, 0}, {29, 0}, {31, 0}, {32, 0}, {33, 0}, {64, 0}, {0, 0}, {0, 1234}}};
    for (const auto& [fixed, seed] : plans) {
      const auto plan = chunk_plan(rec.adu.size(), fixed, seed);
      const Session s = stream_record(cfg, rec.adu, plan);
      expect_bit_identical(
          s, batch, name + " chunks=" + std::to_string(fixed) + "/" + std::to_string(seed));
    }
  }
}

TEST(StreamChunkInvariance, LongRecordWithHistoryTrimming) {
  // Long enough that the detector's sliding-window trimming engages many
  // times; results must still match the batch path exactly.
  const auto rec = ecg::nsrdb_like_digitized(3, 20000);
  const PipelineResult batch = PanTompkinsPipeline().run(rec.adu);
  const Session s =
      stream_record(PipelineConfig::accurate(), rec.adu, chunk_plan(rec.adu.size(), 0, 99));
  expect_bit_identical(s, batch, "trimming");
}

namespace {

/// Add a triangular peak of the given amplitude/half-width to a signal.
void bump(std::vector<i32>& v, std::ptrdiff_t at, int amp, int halfwidth) {
  for (std::ptrdiff_t i = at - halfwidth; i <= at + halfwidth; ++i) {
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(v.size())) continue;
    const int h = amp - static_cast<int>(amp * std::abs(i - at) / (halfwidth + 1));
    if (h > v[static_cast<std::size_t>(i)]) v[static_cast<std::size_t>(i)] = h;
  }
}

}  // namespace

TEST(StreamChunkInvariance, SearchBackAndTWavePathsMatchBatch) {
  // The NSRDB-like workloads never trigger the RR search-back or T-wave
  // discrimination, so craft aligned (MWI, HPF, raw) triples that do: strong
  // beats every 160 samples with gentle trailing T waves, plus two weak
  // beats in a row (below threshold, tallest recovered by search-back when
  // the gap exceeds the missed-beat limit).
  const std::size_t n = 4000;
  std::vector<i32> mwi(n, 0), hpf(n, 0), raw(n, 0);
  int k = 0;
  for (std::size_t p = 100; p + 60 < n; p += 160, ++k) {
    const bool weak = (k == 10 || k == 11);
    const auto at = static_cast<std::ptrdiff_t>(p);
    bump(mwi, at, weak ? (k == 10 ? 260 : 180) : 1000, 8);
    bump(hpf, at - 16, weak ? 250 : 500, 5);
    bump(raw, at - 36, weak ? 400 : 800, 4);
    if (!weak) {
      bump(mwi, at + 50, 350, 24);  // T wave: above threshold, gentle slope
      bump(hpf, at + 34, 150, 20);
    }
  }

  const auto batch = pantompkins::detect_qrs(mwi, hpf, raw);
  int searchback = 0, twave = 0;
  for (const auto& ev : batch.trace) {
    searchback += ev.decision == pantompkins::PeakDecision::SearchBackRecovered ? 1 : 0;
    twave += ev.decision == pantompkins::PeakDecision::TWave ? 1 : 0;
  }
  ASSERT_GT(searchback, 0);  // the paths under test actually run
  ASSERT_GT(twave, 0);

  const std::array<std::pair<std::size_t, u64>, 5> plans = {
      {{1, 0}, {7, 0}, {33, 0}, {0, 0}, {0, 77}}};
  for (const auto& [fixed, seed] : plans) {
    pantompkins::OnlineDetector det{pantompkins::DetectorParams{}};
    std::size_t at = 0;
    for (const std::size_t len : chunk_plan(n, fixed, seed)) {
      (void)det.push(std::span<const i32>(mwi).subspan(at, len),
                     std::span<const i32>(hpf).subspan(at, len),
                     std::span<const i32>(raw).subspan(at, len));
      at += len;
    }
    (void)det.flush();
    EXPECT_EQ(det.result().peaks, batch.peaks) << "chunks=" << fixed << "/" << seed;
    ASSERT_EQ(det.result().trace.size(), batch.trace.size()) << "chunks=" << fixed;
    for (std::size_t i = 0; i < batch.trace.size(); ++i) {
      EXPECT_EQ(det.result().trace[i], batch.trace[i]) << "trace[" << i << "]";
    }
  }
}

TEST(StreamSession, EventsMatchDetectionAndSinkSeesEverything) {
  const auto rec = ecg::nsrdb_like_digitized(1, 6000);
  SessionSpec spec;
  std::vector<Event> sunk;
  spec.sink = [&](const Event& ev) { sunk.push_back(ev); };
  Session s(std::move(spec));

  std::vector<Event> returned;
  for (std::size_t at = 0; at < rec.adu.size(); at += 250) {
    const auto len = std::min<std::size_t>(250, rec.adu.size() - at);
    for (const Event& ev : s.push(std::span<const i32>(rec.adu).subspan(at, len))) {
      returned.push_back(ev);
    }
  }
  for (const Event& ev : s.flush()) returned.push_back(ev);

  // The sink and the returned spans deliver the same event stream, which is
  // exactly the cumulative detector trace.
  ASSERT_EQ(returned.size(), sunk.size());
  const auto& trace = s.detection().trace;
  ASSERT_EQ(returned.size(), trace.size());
  std::size_t beats = 0;
  for (std::size_t i = 0; i < returned.size(); ++i) {
    EXPECT_EQ(returned[i].peak, trace[i]);
    EXPECT_EQ(returned[i].peak, sunk[i].peak);
    if (returned[i].is_beat()) {
      ++beats;
      EXPECT_GT(returned[i].time_s, 0.0);
    }
  }
  EXPECT_EQ(beats, s.beats_detected());
  EXPECT_EQ(returned.size(), s.events_emitted());
  EXPECT_GT(beats, 20u);  // ~30 s at ~70 bpm
  EXPECT_EQ(s.samples_pushed(), rec.adu.size());
}

TEST(StreamSession, UnboundedServingModeKeepsNoCumulativeResult) {
  const auto rec = ecg::nsrdb_like_digitized(2, 6000);
  SessionSpec spec;
  spec.keep_detection = false;
  Session s(std::move(spec));
  std::size_t beats = 0;
  for (std::size_t at = 0; at < rec.adu.size(); at += 64) {
    const auto len = std::min<std::size_t>(64, rec.adu.size() - at);
    for (const Event& ev : s.push(std::span<const i32>(rec.adu).subspan(at, len))) {
      beats += ev.is_beat() ? 1 : 0;
    }
  }
  for (const Event& ev : s.flush()) beats += ev.is_beat() ? 1 : 0;
  EXPECT_TRUE(s.detection().peaks.empty());
  EXPECT_TRUE(s.detection().trace.empty());
  // The event stream still carries every beat the batch path finds.
  const auto batch = PanTompkinsPipeline().run(rec.adu);
  EXPECT_EQ(beats, s.beats_detected());
  std::size_t batch_beats = 0;
  for (const auto& ev : batch.detection.trace) {
    batch_beats += (ev.decision == pantompkins::PeakDecision::Accepted ||
                    ev.decision == pantompkins::PeakDecision::SearchBackRecovered)
                       ? 1
                       : 0;
  }
  EXPECT_EQ(beats, batch_beats);
}

TEST(StreamSession, LifecycleAndValidation) {
  Session s(SessionSpec{});
  (void)s.push(std::vector<i32>(100, 0));
  (void)s.flush();
  EXPECT_TRUE(s.flushed());
  EXPECT_TRUE(s.flush().empty());  // idempotent
  EXPECT_THROW((void)s.push(std::vector<i32>(1, 0)), std::logic_error);

  SessionSpec bad;
  bad.config.detector.fs_hz = 0.0;
  EXPECT_THROW(Session{std::move(bad)}, std::invalid_argument);
}

TEST(StreamSession, OpsAccountingMatchesBatch) {
  const auto rec = ecg::nsrdb_like_digitized(0, 2000);
  const auto cfg = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  const PipelineResult batch = PanTompkinsPipeline(cfg).run(rec.adu);
  const Session s = stream_record(cfg, rec.adu, chunk_plan(rec.adu.size(), 128));
  EXPECT_EQ(s.total_ops(), batch.total_ops());
  EXPECT_GT(s.total_ops().adds, 0u);
  EXPECT_GT(s.total_ops().mults, 0u);
}

TEST(StreamSession, ResetBehavesLikeAFreshSession) {
  const auto rec = ecg::nsrdb_like_digitized(4, 5000);
  const auto cfg = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  const PipelineResult batch = PanTompkinsPipeline(cfg).run(rec.adu);

  SessionSpec spec;
  spec.config = cfg;
  spec.keep_signals = true;
  Session s(spec);
  // Pollute every stage carry-over, the detector and the counters, flush —
  // then reset must restore a bit-exact fresh session on the same wiring.
  (void)s.push(std::span<const i32>(rec.adu).subspan(0, 1777));
  (void)s.flush();
  EXPECT_TRUE(s.flushed());
  s.reset();
  EXPECT_FALSE(s.flushed());
  EXPECT_EQ(s.samples_pushed(), 0u);
  EXPECT_EQ(s.events_emitted(), 0u);
  EXPECT_EQ(s.total_ops(), arith::OpCounts{});

  const auto plan = chunk_plan(rec.adu.size(), 0, 4321);
  std::size_t at = 0;
  for (const std::size_t len : plan) {
    (void)s.push(std::span<const i32>(rec.adu).subspan(at, len));
    at += len;
  }
  (void)s.flush();
  expect_bit_identical(s, batch, "post-reset record");
}

/// Collects every event a server session delivers through its sink. The
/// server drains one session from at most one worker at a time and close()
/// synchronizes with the final state change, so no locking is needed as long
/// as the vector is read only after close()/release().
struct EventLog {
  std::vector<Event> events;
  [[nodiscard]] std::vector<std::size_t> beat_raw_indices() const {
    std::vector<std::size_t> out;
    for (const Event& ev : events) {
      if (ev.is_beat()) out.push_back(ev.peak.raw_index);
    }
    return out;
  }
};

/// One-shot reference run: the pre-server single-threaded path.
std::vector<Event> one_shot_events(const SessionSpec& base, std::span<const i32> feed,
                                   std::size_t chunk) {
  std::vector<Event> out;
  SessionSpec spec = base;
  spec.sink = {};
  Session s(std::move(spec));
  for (std::size_t at = 0; at < feed.size(); at += chunk) {
    const std::size_t len = std::min(chunk, feed.size() - at);
    for (const Event& ev : s.push(feed.subspan(at, len))) out.push_back(ev);
  }
  for (const Event& ev : s.flush()) out.push_back(ev);
  return out;
}

void expect_same_events(const std::vector<Event>& got, const std::vector<Event>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].peak, want[i].peak) << what << " event " << i;
    EXPECT_DOUBLE_EQ(got[i].time_s, want[i].time_s) << what << " event " << i;
    EXPECT_DOUBLE_EQ(got[i].rr_s, want[i].rr_s) << what << " event " << i;
    EXPECT_DOUBLE_EQ(got[i].hr_bpm, want[i].hr_bpm) << what << " event " << i;
  }
}

TEST(StreamServer, OpenPushCloseBitIdenticalToOneShotPath) {
  const auto rec = ecg::nsrdb_like_digitized(0, 5000);
  SessionSpec spec;
  spec.config = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});

  const std::vector<Event> want = one_shot_events(spec, rec.adu, 64);
  const PipelineResult batch = PanTompkinsPipeline(spec.config).run(rec.adu);

  StreamServer server({.max_sessions = 4, .queue_capacity_chunks = 8, .workers = 2});
  EventLog log;
  spec.sink = [&log](const Event& ev) { log.events.push_back(ev); };
  const SessionId id = server.open(spec);

  for (std::size_t at = 0; at < rec.adu.size(); at += 64) {
    const std::size_t len = std::min<std::size_t>(64, rec.adu.size() - at);
    ASSERT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(at, len)),
              PushResult::Ok);
  }
  ASSERT_EQ(server.close(id), SessionState::Closed);

  expect_same_events(log.events, want, "server vs one-shot");

  const auto st = server.session_stats(id);
  EXPECT_EQ(st.state, SessionState::Closed);
  EXPECT_EQ(st.samples, rec.adu.size());
  EXPECT_EQ(st.events, log.events.size());
  EXPECT_EQ(st.dropped_chunks, 0u);
  EXPECT_EQ(st.queued_chunks, 0u);
  EXPECT_TRUE(st.error.empty());

  // close() is idempotent, and the released session comes back quiescent.
  EXPECT_EQ(server.close(id), SessionState::Closed);
  std::unique_ptr<Session> back = server.release(id);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->flushed());
  EXPECT_EQ(back->detection().peaks, batch.detection.peaks);
}

TEST(StreamServer, ResetMidFlightStartsAFreshRecord) {
  const auto rec = ecg::nsrdb_like_digitized(2, 5000);
  SessionSpec spec;  // accurate config
  const std::vector<Event> want = one_shot_events(spec, rec.adu, 128);

  StreamServer server({.max_sessions = 2, .workers = 1});
  EventLog log;
  spec.sink = [&log](const Event& ev) { log.events.push_back(ev); };
  const SessionId id = server.open(spec);

  // Stream a partial record, abandon it mid-flight, then stream the full
  // record through the same slot: events after reset must match a fresh run.
  for (std::size_t at = 0; at < 2000; at += 128) {
    ASSERT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(at, 128)),
              PushResult::Ok);
  }
  ASSERT_TRUE(server.reset(id));
  log.events.clear();  // reset waits out in-flight work: no sink call races this

  for (std::size_t at = 0; at < rec.adu.size(); at += 128) {
    const std::size_t len = std::min<std::size_t>(128, rec.adu.size() - at);
    ASSERT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(at, len)),
              PushResult::Ok);
  }
  ASSERT_EQ(server.close(id), SessionState::Closed);
  expect_same_events(log.events, want, "post-reset record");
}

TEST(StreamServer, QuarantineIsolatesThrowingSinkAndMalformedChunk) {
  // N sessions stream concurrently; one session's sink throws mid-stream and
  // another's feed contains a protocol-violating oversized chunk. Both must
  // quarantine (state Faulted, error captured) while every other session's
  // event stream stays bit-identical to an undisturbed run.
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kChunk = 64;
  SessionSpec base;
  base.config = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});

  std::vector<std::vector<i32>> feeds;
  std::vector<std::vector<Event>> want(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    feeds.push_back(ecg::nsrdb_like_digitized(static_cast<int>(i), 4000).adu);
    want[i] = one_shot_events(base, feeds[i], kChunk);
    ASSERT_GT(want[i].size(), 6u) << "workload must produce events for session " << i;
  }

  StreamServer server({.max_sessions = kSessions,
                       .queue_capacity_chunks = 8,
                       .max_chunk_samples = kChunk,
                       .workers = 3});
  std::vector<EventLog> logs(kSessions);
  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionSpec spec = base;
    EventLog& log = logs[i];
    if (i == 0) {
      // Session 0: user sink blows up on its third event.
      spec.sink = [&log](const Event& ev) {
        log.events.push_back(ev);
        if (log.events.size() == 3) throw std::runtime_error("sink boom");
      };
    } else {
      spec.sink = [&log](const Event& ev) { log.events.push_back(ev); };
    }
    ids.push_back(server.open(spec));
  }

  // Interleaved round-robin ingest, as a front-end fanning in N streams
  // would deliver it. Session 1's 11th chunk violates the protocol bound.
  std::vector<std::size_t> pos(kSessions, 0);
  std::vector<PushResult> last(kSessions, PushResult::Ok);
  bool any = true;
  std::size_t round = 0;
  while (any) {
    any = false;
    ++round;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (pos[i] >= feeds[i].size()) continue;
      std::size_t len = std::min(kChunk, feeds[i].size() - pos[i]);
      if (i == 1 && round == 11) {
        len = std::min<std::size_t>(kChunk + 1, feeds[i].size() - pos[i]);  // oversized
      }
      last[i] = server.push(ids[i], std::span<const i32>(feeds[i]).subspan(pos[i], len));
      if (last[i] != PushResult::Ok) {
        pos[i] = feeds[i].size();  // quarantined: abandon the rest of the feed
        continue;
      }
      pos[i] += len;
      any = true;
    }
  }

  // The malformed chunk is refused synchronously; the sink fault surfaces on
  // whatever push follows the worker's discovery — close() always observes it.
  EXPECT_EQ(last[1], PushResult::Faulted);
  EXPECT_EQ(server.close(ids[0]), SessionState::Faulted);
  EXPECT_EQ(server.close(ids[1]), SessionState::Faulted);
  for (std::size_t i = 2; i < kSessions; ++i) {
    EXPECT_EQ(server.close(ids[i]), SessionState::Closed) << "session " << i;
  }

  const auto st0 = server.session_stats(ids[0]);
  EXPECT_EQ(st0.state, SessionState::Faulted);
  EXPECT_NE(st0.error.find("sink boom"), std::string::npos) << st0.error;
  EXPECT_EQ(logs[0].events.size(), 3u);  // delivered up to (and including) the bang

  const auto st1 = server.session_stats(ids[1]);
  EXPECT_EQ(st1.state, SessionState::Faulted);
  EXPECT_NE(st1.error.find("protocol violation"), std::string::npos) << st1.error;

  // The healthy majority is bit-identical to undisturbed runs.
  for (std::size_t i = 2; i < kSessions; ++i) {
    expect_same_events(logs[i].events, want[i], "session " + std::to_string(i));
    const auto st = server.session_stats(ids[i]);
    EXPECT_EQ(st.samples, feeds[i].size()) << "session " << i;
    EXPECT_TRUE(st.error.empty()) << "session " << i;
  }

  const auto ss = server.stats();
  EXPECT_EQ(ss.faulted, 2u);
  EXPECT_EQ(ss.closed, kSessions - 2);
  EXPECT_EQ(ss.open, 0u);
  EXPECT_GT(ss.rejected_chunks, 0u);  // at least the protocol-violating chunk

  // The faulted sessions' ledgers close too: every accepted chunk was either
  // processed or explicitly dropped at the quarantine.
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto st = server.session_stats(ids[i]);
    EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks)
        << "session " << i;
  }
}

TEST(StreamServer, BackpressureTryPushReportsQueueFull) {
  StreamServer server({.max_sessions = 1, .queue_capacity_chunks = 4, .workers = 1});
  server.pause();  // deterministic: nothing drains until resume()

  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId id = server.open(spec);
  const std::vector<i32> chunk(32, 100);

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.try_push(id, chunk), PushResult::Ok) << i;
  }
  // High-water mark reached: lossy ingest refuses (and counts the drop)
  // instead of blocking or growing without bound.
  EXPECT_EQ(server.try_push(id, chunk), PushResult::QueueFull);
  EXPECT_EQ(server.try_push(id, chunk), PushResult::QueueFull);

  auto st = server.session_stats(id);
  EXPECT_EQ(st.queued_chunks, 4u);
  EXPECT_EQ(st.queued_samples, 4u * 32u);
  // The two refusals never entered the queue: they are rejects, not drops
  // (the accounting contract separates the two so the ledger stays clean).
  EXPECT_EQ(st.rejected_chunks, 2u);
  EXPECT_EQ(st.dropped_chunks, 0u);
  EXPECT_EQ(st.chunks_in, 4u);
  EXPECT_EQ(st.chunks_processed, 0u);  // paused: nothing drained

  server.resume();
  EXPECT_EQ(server.close(id), SessionState::Closed);
  st = server.session_stats(id);
  EXPECT_EQ(st.chunks_processed, 4u);
  EXPECT_EQ(st.samples, 4u * 32u);
  EXPECT_EQ(st.queued_chunks, 0u);
  // Clean ledger at quiescence: everything accepted was processed.
  EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks);

  const auto ss = server.stats();
  EXPECT_EQ(ss.peak_queued_chunks, 4u);
  EXPECT_EQ(ss.rejected_chunks, 2u);
  EXPECT_EQ(ss.dropped_chunks, 0u);
}

TEST(StreamServer, StaleIdsAndSlotReuse) {
  StreamServer server({.max_sessions = 1, .workers = 1});
  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId first = server.open(spec);
  EXPECT_THROW((void)server.open(spec), std::runtime_error);  // at the ceiling

  EXPECT_EQ(server.push(first, std::vector<i32>(16, 0)), PushResult::Ok);
  EXPECT_EQ(server.close(first), SessionState::Closed);
  std::unique_ptr<Session> released = server.release(first);
  ASSERT_NE(released, nullptr);

  // The id is stale everywhere now.
  EXPECT_EQ(server.push(first, std::vector<i32>(16, 0)), PushResult::NoSuchSession);
  EXPECT_EQ(server.try_push(first, std::vector<i32>(16, 0)), PushResult::NoSuchSession);
  EXPECT_EQ(server.close(first), SessionState::Empty);
  EXPECT_FALSE(server.reset(first));
  EXPECT_EQ(server.release(first), nullptr);
  EXPECT_EQ(server.session_stats(first).state, SessionState::Empty);

  // The freed slot is reusable — and the old id still addresses nothing.
  const SessionId second = server.open(spec);
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_NE(second.generation, first.generation);
  EXPECT_EQ(server.push(first, std::vector<i32>(16, 0)), PushResult::NoSuchSession);
  EXPECT_EQ(server.push(second, std::vector<i32>(16, 0)), PushResult::Ok);
  EXPECT_EQ(server.close(second), SessionState::Closed);
}

TEST(StreamServer, ResetReleasesQuarantine) {
  // reset() re-arms a Faulted slot: after a protocol violation (a chunk over
  // max_chunk_samples) quarantines the session, the same slot returns to
  // Open, streams a clean record bit-identical to an undisturbed run, and
  // carries no error.
  constexpr std::size_t kChunk = 64;
  const auto rec = ecg::nsrdb_like_digitized(2, 3000);
  const std::vector<Event> want = one_shot_events(SessionSpec{}, rec.adu, kChunk);
  ASSERT_FALSE(want.empty());

  StreamServer server({.max_sessions = 1,
                       .max_chunk_samples = kChunk,
                       .workers = 1,
                       .event_queue_capacity = 1024});
  const SessionId id = server.open(SessionSpec{});
  EXPECT_EQ(server.push(id, std::vector<i32>(kChunk, 0)), PushResult::Ok);
  EXPECT_EQ(server.push(id, std::vector<i32>(kChunk + 1, 0)), PushResult::Faulted);
  auto st = server.session_stats(id);
  EXPECT_EQ(st.state, SessionState::Faulted);
  EXPECT_NE(st.error.find("max_chunk_samples"), std::string::npos) << st.error;
  EXPECT_EQ(server.push(id, std::vector<i32>(kChunk, 0)), PushResult::Faulted);

  ASSERT_TRUE(server.reset(id));
  st = server.session_stats(id);
  EXPECT_EQ(st.state, SessionState::Open);
  EXPECT_TRUE(st.error.empty()) << st.error;
  for (std::size_t at = 0; at < rec.adu.size(); at += kChunk) {
    const std::size_t len = std::min(kChunk, rec.adu.size() - at);
    ASSERT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(at, len)), PushResult::Ok);
  }
  EXPECT_EQ(server.close(id), SessionState::Closed);
  EXPECT_TRUE(server.session_stats(id).error.empty());
  std::vector<Event> got;
  (void)server.drain_events(id, got);
  expect_same_events(got, want, "after quarantine reset");
}

TEST(StreamServer, ChurnReprovisionsSlotsWhileOthersStream) {
  // Three live streams; the middle one disconnects and its slot is released
  // and re-provisioned for a new stream while the outer two keep flowing.
  // Both survivors and the newcomer must be bit-identical to undisturbed runs.
  SessionSpec base;
  base.config = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  std::vector<std::vector<i32>> feeds;
  for (int i = 0; i < 4; ++i) {
    feeds.push_back(ecg::nsrdb_like_digitized(i, 3000).adu);
  }
  std::vector<std::vector<Event>> want;
  for (const auto& f : feeds) want.push_back(one_shot_events(base, f, 100));

  StreamServer server({.max_sessions = 3, .workers = 2});
  std::vector<EventLog> logs(4);
  auto open_with_log = [&](std::size_t i) {
    SessionSpec spec = base;
    EventLog& log = logs[i];
    spec.sink = [&log](const Event& ev) { log.events.push_back(ev); };
    return server.open(spec);
  };
  SessionId a = open_with_log(0), b = open_with_log(1), c = open_with_log(2);

  auto push_some = [&](SessionId id, std::size_t feed, std::size_t from, std::size_t to) {
    for (std::size_t at = from; at < to; at += 100) {
      const std::size_t len = std::min<std::size_t>(100, to - at);
      ASSERT_EQ(server.push(id, std::span<const i32>(feeds[feed]).subspan(at, len)),
                PushResult::Ok);
    }
  };

  push_some(a, 0, 0, 1500);
  push_some(b, 1, 0, 1000);
  push_some(c, 2, 0, 500);

  // Stream 1 disconnects mid-record; its slot is retired and re-provisioned
  // for stream 3 while streams 0 and 2 continue uninterrupted.
  EXPECT_EQ(server.close(b), SessionState::Closed);
  ASSERT_NE(server.release(b), nullptr);
  const SessionId d = open_with_log(3);
  EXPECT_EQ(d.slot, b.slot);

  push_some(a, 0, 1500, feeds[0].size());
  push_some(d, 3, 0, feeds[3].size());
  push_some(c, 2, 500, feeds[2].size());

  EXPECT_EQ(server.close(a), SessionState::Closed);
  EXPECT_EQ(server.close(c), SessionState::Closed);
  EXPECT_EQ(server.close(d), SessionState::Closed);

  expect_same_events(logs[0].events, want[0], "survivor A");
  expect_same_events(logs[2].events, want[2], "survivor C");
  expect_same_events(logs[3].events, want[3], "newcomer D");

  // Clean ledgers across the churn: every accepted chunk is accounted for on
  // every surviving slot, with nothing rejected or dropped on these lossless
  // feeds (counters are cumulative per provisioning generation).
  for (const SessionId id : {a, c, d}) {
    const auto st = server.session_stats(id);
    EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks);
    EXPECT_EQ(st.rejected_chunks, 0u);
    EXPECT_EQ(st.dropped_chunks, 0u);
    EXPECT_EQ(st.resets, 0u);
  }

  const auto ss = server.stats();
  EXPECT_EQ(ss.sessions_opened, 4u);
  EXPECT_EQ(ss.sessions_released, 1u);
  EXPECT_EQ(ss.faulted, 0u);
  EXPECT_EQ(ss.rejected_chunks, 0u);
  EXPECT_EQ(ss.dropped_chunks, 0u);
}

/// Everything a serving run leaves behind for one session, for cross-run
/// bit-identity comparison (peak queue depth is scheduling noise and is
/// deliberately not captured).
struct SessionOutcome {
  std::vector<Event> sunk;     ///< push-model egress (sink)
  std::vector<Event> drained;  ///< pull-model egress (drain_events)
  std::array<arith::OpCounts, pantompkins::kNumStages> ops{};
  u64 chunks_in = 0, chunks_processed = 0, rejected = 0, dropped = 0;
  u64 resets = 0, samples = 0, events = 0, beats = 0, events_dropped = 0;
};

TEST(StreamServerSharded, ShardCountIsObservablyInvariant) {
  // The tentpole property: the same multi-session workload — interleaved
  // ingest, a mid-run close+reset, periodic drain_events — produces
  // bit-identical per-session events, ledgers and OpCounts on 1, 2 and 8
  // shards. Sharding is a pure contention optimization.
  constexpr std::size_t kSessions = 5;
  constexpr std::size_t kChunk = 64;
  SessionSpec base;
  base.config = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  std::vector<std::vector<i32>> feeds;
  for (std::size_t i = 0; i < kSessions; ++i) {
    feeds.push_back(ecg::nsrdb_like_digitized(static_cast<int>(i), 3000).adu);
  }

  auto run = [&](unsigned shards) -> std::vector<SessionOutcome> {
    StreamServer server({.max_sessions = kSessions,
                         .queue_capacity_chunks = 8,
                         .max_chunk_samples = 0,
                         .workers = shards,
                         .shards = shards,
                         .event_queue_capacity = 4096});
    EXPECT_EQ(server.shards(), shards);
    std::vector<SessionOutcome> out(kSessions);
    std::vector<SessionId> ids;
    for (std::size_t i = 0; i < kSessions; ++i) {
      SessionSpec spec = base;
      std::vector<Event>& log = out[i].sunk;
      spec.sink = [&log](const Event& ev) { log.push_back(ev); };
      ids.push_back(server.open(spec));
    }

    std::vector<std::size_t> pos(kSessions, 0);
    bool any = true;
    std::size_t round = 0;
    while (any) {
      any = false;
      ++round;
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (pos[i] >= feeds[i].size()) continue;
        if (i == 2 && round == 20) {
          // Session 2's stream restarts mid-run: drain deterministically via
          // close(), then re-arm the same slot for the rest of its feed.
          EXPECT_EQ(server.close(ids[2]), SessionState::Closed);
          EXPECT_TRUE(server.reset(ids[2]));
        }
        if (i == 1 && round % 13 == 0) {
          (void)server.drain_events(ids[1], out[1].drained);
        }
        const std::size_t len = std::min(kChunk, feeds[i].size() - pos[i]);
        EXPECT_EQ(server.push(ids[i], std::span<const i32>(feeds[i]).subspan(pos[i], len)),
                  PushResult::Ok);
        pos[i] += len;
        any = true;
      }
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      EXPECT_EQ(server.close(ids[i]), SessionState::Closed) << "session " << i;
      (void)server.drain_events(ids[i], out[i].drained);
      const auto st = server.session_stats(ids[i]);
      out[i].chunks_in = st.chunks_in;
      out[i].chunks_processed = st.chunks_processed;
      out[i].rejected = st.rejected_chunks;
      out[i].dropped = st.dropped_chunks;
      out[i].resets = st.resets;
      out[i].samples = st.samples;
      out[i].events = st.events;
      out[i].beats = st.beats;
      out[i].events_dropped = st.events_dropped;
      const std::unique_ptr<Session> s = server.release(ids[i]);
      if (s != nullptr) out[i].ops = s->ops();
      EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks)
          << "session " << i;
    }
    return out;
  };

  const auto one = run(1);
  for (const unsigned shards : {2u, 8u}) {
    const auto got = run(shards);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::string what = "shards=" + std::to_string(shards) + " session " +
                               std::to_string(i);
      expect_same_events(got[i].sunk, one[i].sunk, what + " sink");
      expect_same_events(got[i].drained, one[i].drained, what + " drained");
      for (std::size_t st = 0; st < one[i].ops.size(); ++st) {
        EXPECT_EQ(got[i].ops[st], one[i].ops[st]) << what << " ops stage " << st;
      }
      EXPECT_EQ(got[i].chunks_in, one[i].chunks_in) << what;
      EXPECT_EQ(got[i].chunks_processed, one[i].chunks_processed) << what;
      EXPECT_EQ(got[i].rejected, one[i].rejected) << what;
      EXPECT_EQ(got[i].dropped, one[i].dropped) << what;
      EXPECT_EQ(got[i].resets, one[i].resets) << what;
      EXPECT_EQ(got[i].samples, one[i].samples) << what;
      EXPECT_EQ(got[i].events, one[i].events) << what;
      EXPECT_EQ(got[i].beats, one[i].beats) << what;
      EXPECT_EQ(got[i].events_dropped, one[i].events_dropped) << what;
    }
  }
}

TEST(StreamServer, LoanIngestBitIdenticalToCopyingPush) {
  // Two sessions, same feed: one fed by copying push(), one by the zero-copy
  // acquire/fill/commit loan path — with one abandoned loan and one partial
  // commit thrown in (the partial re-chunks the stream, which the session
  // API's chunk invariance must absorb). Events and totals must match.
  const auto rec = ecg::nsrdb_like_digitized(1, 5000);
  SessionSpec base;
  base.config = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});

  StreamServer server({.max_sessions = 2, .queue_capacity_chunks = 8, .workers = 2});
  std::vector<Event> sunk_copy, sunk_loan;
  SessionSpec spec_copy = base, spec_loan = base;
  spec_copy.sink = [&sunk_copy](const Event& ev) { sunk_copy.push_back(ev); };
  spec_loan.sink = [&sunk_loan](const Event& ev) { sunk_loan.push_back(ev); };
  const SessionId a = server.open(spec_copy);
  const SessionId b = server.open(spec_loan);

  constexpr std::size_t kChunk = 64;
  std::size_t at_b = 0;
  for (std::size_t at = 0; at < rec.adu.size(); at += kChunk) {
    const std::size_t len = std::min(kChunk, rec.adu.size() - at);
    ASSERT_EQ(server.push(a, std::span<const i32>(rec.adu).subspan(at, len)),
              PushResult::Ok);

    if (at == 10 * kChunk) {
      // An acquired-then-abandoned loan must be invisible to the stream.
      ChunkLoan dropped;
      ASSERT_EQ(server.acquire_buffer(b, kChunk, dropped), PushResult::Ok);
      dropped = ChunkLoan{};  // abandon: buffer and queue slot return
    }
    ChunkLoan loan;
    ASSERT_EQ(server.acquire_buffer(b, len, loan), PushResult::Ok);
    ASSERT_EQ(loan.data().size(), len);
    std::copy_n(rec.adu.begin() + static_cast<std::ptrdiff_t>(at), len,
                loan.data().begin());
    if (at == 20 * kChunk && len == kChunk) {
      // Commit only half of what was acquired; the rest follows as its own
      // chunk. Different chunking, same sample stream.
      ASSERT_EQ(server.commit(loan, kChunk / 2), PushResult::Ok);
      ChunkLoan rest;
      ASSERT_EQ(server.acquire_buffer(b, kChunk / 2, rest), PushResult::Ok);
      std::copy_n(rec.adu.begin() + static_cast<std::ptrdiff_t>(at + kChunk / 2),
                  kChunk / 2, rest.data().begin());
      ASSERT_EQ(server.commit(rest), PushResult::Ok);
    } else {
      ASSERT_EQ(server.commit(loan), PushResult::Ok);
    }
    at_b += len;
  }
  ASSERT_EQ(at_b, rec.adu.size());
  ASSERT_EQ(server.close(a), SessionState::Closed);
  ASSERT_EQ(server.close(b), SessionState::Closed);

  expect_same_events(sunk_loan, sunk_copy, "loan vs copy");
  const auto sa = server.session_stats(a);
  const auto sb = server.session_stats(b);
  EXPECT_EQ(sa.samples, rec.adu.size());
  EXPECT_EQ(sb.samples, rec.adu.size());
  EXPECT_EQ(sb.events, sa.events);
  EXPECT_EQ(sb.beats, sa.beats);
  EXPECT_EQ(sb.chunks_in, sa.chunks_in + 1);  // the split chunk, not the abandoned loan
  EXPECT_EQ(sb.chunks_in, sb.chunks_processed + sb.queued_chunks + sb.dropped_chunks);
}

TEST(StreamServer, AbandonedLoanReturnsItsQueueSlot) {
  StreamServer server({.max_sessions = 1, .queue_capacity_chunks = 2, .workers = 1});
  server.pause();  // nothing drains: capacity accounting is exact
  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId id = server.open(spec);

  // Outstanding loans reserve queue slots.
  ChunkLoan l1, l2, l3;
  ASSERT_EQ(server.acquire_buffer(id, 16, l1), PushResult::Ok);
  ASSERT_EQ(server.acquire_buffer(id, 16, l2), PushResult::Ok);
  EXPECT_EQ(server.try_acquire_buffer(id, 16, l3), PushResult::QueueFull);
  EXPECT_FALSE(l3.valid());

  l1 = ChunkLoan{};  // abandon: the slot frees without a commit
  ASSERT_EQ(server.try_acquire_buffer(id, 16, l3), PushResult::Ok);

  std::fill(l2.data().begin(), l2.data().end(), 1);
  std::fill(l3.data().begin(), l3.data().end(), 2);
  EXPECT_EQ(server.commit(l2), PushResult::Ok);
  EXPECT_FALSE(l2.valid());  // consumed
  EXPECT_EQ(server.commit(l3), PushResult::Ok);
  EXPECT_EQ(server.commit(l3), PushResult::NoSuchSession);  // a consumed loan is inert

  server.resume();
  EXPECT_EQ(server.close(id), SessionState::Closed);
  const auto st = server.session_stats(id);
  EXPECT_EQ(st.chunks_in, 2u);
  EXPECT_EQ(st.rejected_chunks, 1u);  // the QueueFull refusal
  EXPECT_EQ(st.samples, 32u);
  EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks);
}

TEST(StreamServer, LoanAcquiredBeforeResetCannotPolluteTheFreshRecord) {
  // A producer holds a loan across a reset(): its samples belong to the
  // abandoned episode and must be discarded at commit (surfaced as Closed),
  // not spliced into the new record.
  StreamServer server({.max_sessions = 1, .queue_capacity_chunks = 4, .workers = 1});
  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId id = server.open(spec);

  ChunkLoan stale;
  ASSERT_EQ(server.acquire_buffer(id, 32, stale), PushResult::Ok);
  std::fill(stale.data().begin(), stale.data().end(), 999);
  ASSERT_TRUE(server.reset(id));
  EXPECT_EQ(server.commit(stale), PushResult::Closed);

  // The fresh record sees only what is pushed after the reset, and the
  // stale loan's reservation was returned (all 4 slots usable again).
  server.pause();
  const std::vector<i32> chunk(16, 1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(server.try_push(id, chunk), PushResult::Ok) << i;
  EXPECT_EQ(server.try_push(id, chunk), PushResult::QueueFull);
  server.resume();
  EXPECT_EQ(server.close(id), SessionState::Closed);
  const auto st = server.session_stats(id);
  EXPECT_EQ(st.samples, 4u * 16u);  // the 32 stale samples never landed
  EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks);
}

TEST(StreamServer, DrainEventsDeliversExactlyTheSinkStream) {
  // Pull egress: drain_events hands a single-threaded consumer the same
  // event stream the sink saw (and the one-shot reference produced), with no
  // locking discipline on the consumer side.
  const auto rec = ecg::nsrdb_like_digitized(3, 6000);
  SessionSpec spec;
  spec.config = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  const std::vector<Event> want = one_shot_events(spec, rec.adu, 64);

  StreamServer server({.max_sessions = 2,
                       .queue_capacity_chunks = 8,
                       .workers = 2,
                       .event_queue_capacity = 1024});
  EventLog log;
  spec.sink = [&log](const Event& ev) { log.events.push_back(ev); };
  const SessionId id = server.open(spec);

  std::vector<Event> drained;
  for (std::size_t at = 0; at < rec.adu.size(); at += 64) {
    const std::size_t len = std::min<std::size_t>(64, rec.adu.size() - at);
    ASSERT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(at, len)),
              PushResult::Ok);
    if ((at / 64) % 7 == 0) (void)server.drain_events(id, drained);
  }
  ASSERT_EQ(server.close(id), SessionState::Closed);
  (void)server.drain_events(id, drained);  // the tail stays drainable after close

  expect_same_events(drained, want, "drained vs one-shot");
  expect_same_events(log.events, want, "sink vs one-shot");
  const auto st = server.session_stats(id);
  EXPECT_EQ(st.events_dropped, 0u);
  EXPECT_EQ(st.events_queued, 0u);
}

TEST(StreamServer, EgressBoundShedsOldestAndCountsIt) {
  // A consumer that never drains loses exactly the oldest events beyond the
  // bound — the newest stay available, and the loss is counted.
  const auto rec = ecg::nsrdb_like_digitized(2, 5000);
  SessionSpec spec;
  const std::vector<Event> want = one_shot_events(spec, rec.adu, 100);
  ASSERT_GT(want.size(), 6u);

  constexpr std::size_t kCap = 4;
  StreamServer server(
      {.max_sessions = 1, .workers = 1, .event_queue_capacity = kCap});
  const SessionId id = server.open(spec);
  for (std::size_t at = 0; at < rec.adu.size(); at += 100) {
    const std::size_t len = std::min<std::size_t>(100, rec.adu.size() - at);
    ASSERT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(at, len)),
              PushResult::Ok);
  }
  ASSERT_EQ(server.close(id), SessionState::Closed);

  std::vector<Event> drained;
  EXPECT_EQ(server.drain_events(id, drained), kCap);
  const std::vector<Event> tail(want.end() - kCap, want.end());
  expect_same_events(drained, tail, "bounded egress tail");
  const auto st = server.session_stats(id);
  EXPECT_EQ(st.events_dropped, want.size() - kCap);
  EXPECT_EQ(st.events, want.size());
}

TEST(StreamServer, PullEgressDisabledByDefault) {
  StreamServer server({.max_sessions = 1, .workers = 1});
  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId id = server.open(spec);
  ASSERT_EQ(server.push(id, std::vector<i32>(500, 5)), PushResult::Ok);
  EXPECT_EQ(server.close(id), SessionState::Closed);
  std::vector<Event> drained;
  EXPECT_EQ(server.drain_events(id, drained), 0u);
  EXPECT_TRUE(drained.empty());
}

TEST(StreamServer, BlockedProducerWakesOnClose) {
  // Regression (PR 4 deadlock): a push() blocked at the high-water mark on a
  // paused server would sleep forever once the session was close()d, because
  // nothing woke the space waiters on the state change. It must wake and
  // surface Closed without a single chunk being drained.
  using namespace std::chrono_literals;
  StreamServer server({.max_sessions = 1, .queue_capacity_chunks = 2, .workers = 1});
  server.pause();
  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId id = server.open(spec);
  const std::vector<i32> chunk(16, 1);
  ASSERT_EQ(server.push(id, chunk), PushResult::Ok);
  ASSERT_EQ(server.push(id, chunk), PushResult::Ok);

  auto blocked = std::async(std::launch::async, [&] { return server.push(id, chunk); });
  ASSERT_EQ(blocked.wait_for(100ms), std::future_status::timeout);  // genuinely blocked

  auto closer = std::async(std::launch::async, [&] { return server.close(id); });
  // The producer wakes on the Open -> Draining transition alone: the server
  // is still paused, so no drain can have freed space.
  ASSERT_EQ(blocked.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(blocked.get(), PushResult::Closed);

  server.resume();  // now let close() finish
  EXPECT_EQ(closer.get(), SessionState::Closed);
  const auto st = server.session_stats(id);
  EXPECT_EQ(st.chunks_in, 2u);
  EXPECT_EQ(st.chunks_processed, 2u);
}

TEST(StreamServer, BlockedProducerWakesOnFaultAndRelease) {
  using namespace std::chrono_literals;
  SessionSpec spec;
  spec.keep_detection = false;

  {
    // Fault path: an oversize chunk from another thread quarantines the
    // session; the blocked producer must wake with Faulted, not hang.
    StreamServer server({.max_sessions = 1,
                         .queue_capacity_chunks = 2,
                         .max_chunk_samples = 16,
                         .workers = 1});
    server.pause();
    const SessionId id = server.open(spec);
    const std::vector<i32> chunk(16, 1);
    ASSERT_EQ(server.push(id, chunk), PushResult::Ok);
    ASSERT_EQ(server.push(id, chunk), PushResult::Ok);
    auto blocked = std::async(std::launch::async, [&] { return server.push(id, chunk); });
    ASSERT_EQ(blocked.wait_for(100ms), std::future_status::timeout);
    EXPECT_EQ(server.try_push(id, std::vector<i32>(17, 0)), PushResult::Faulted);
    ASSERT_EQ(blocked.wait_for(5s), std::future_status::ready);
    EXPECT_EQ(blocked.get(), PushResult::Faulted);
    server.resume();
    EXPECT_EQ(server.close(id), SessionState::Faulted);
    const auto st = server.session_stats(id);
    EXPECT_EQ(st.dropped_chunks, 2u);   // the two queued chunks, discarded
    EXPECT_EQ(st.rejected_chunks, 1u);  // the protocol violation
    EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks);
  }
  {
    // Release path: the producer wakes once the drain completes and the slot
    // empties, surfacing NoSuchSession (its id went stale mid-block).
    StreamServer server({.max_sessions = 1, .queue_capacity_chunks = 2, .workers = 1});
    const SessionId id = server.open(spec);
    server.pause();
    const std::vector<i32> chunk(16, 1);
    ASSERT_EQ(server.push(id, chunk), PushResult::Ok);
    ASSERT_EQ(server.push(id, chunk), PushResult::Ok);
    auto blocked = std::async(std::launch::async, [&] { return server.push(id, chunk); });
    ASSERT_EQ(blocked.wait_for(100ms), std::future_status::timeout);
    auto releaser = std::async(std::launch::async, [&] { return server.release(id); });
    // Draining under pause: the blocked producer must already have returned.
    ASSERT_EQ(blocked.wait_for(5s), std::future_status::ready);
    EXPECT_EQ(blocked.get(), PushResult::Closed);
    server.resume();
    EXPECT_NE(releaser.get(), nullptr);
    EXPECT_EQ(server.push(id, chunk), PushResult::NoSuchSession);
  }
}

TEST(StreamServer, FaultedThenReleasedSlotLeavesNoStaleReadyEntry) {
  // Regression: a fault while chunks are queued (and no worker has popped
  // the slot yet — paused here) leaves the slot's index in the shard's
  // ready list. release() must purge it, or the slot's next tenant inherits
  // a duplicate entry and two workers can drain the same Session at once
  // (the duplicate-drain itself is what the TSan leg would flag; this pins
  // the deterministic part: the reused slot streams cleanly).
  StreamServer server({.max_sessions = 1,
                       .queue_capacity_chunks = 4,
                       .max_chunk_samples = 16,
                       .workers = 2,
                       .shards = 1});  // both workers on one shard: slot reuse is the point
  SessionSpec spec;
  spec.keep_detection = false;
  server.pause();
  const SessionId first = server.open(spec);
  const std::vector<i32> chunk(16, 3);
  ASSERT_EQ(server.push(first, chunk), PushResult::Ok);  // slot enters the ready list
  ASSERT_EQ(server.push(first, chunk), PushResult::Ok);
  ASSERT_EQ(server.try_push(first, std::vector<i32>(17, 0)), PushResult::Faulted);
  ASSERT_NE(server.release(first), nullptr);  // Faulted + quiescent: retires while paused

  const SessionId second = server.open(spec);
  EXPECT_EQ(second.slot, first.slot);
  ASSERT_EQ(server.push(second, chunk), PushResult::Ok);
  server.resume();
  EXPECT_EQ(server.close(second), SessionState::Closed);
  const auto st = server.session_stats(second);
  EXPECT_EQ(st.chunks_in, 1u);
  EXPECT_EQ(st.chunks_processed, 1u);
  EXPECT_EQ(st.samples, 16u);
  EXPECT_EQ(st.chunks_in, st.chunks_processed + st.queued_chunks + st.dropped_chunks);
}

TEST(StreamServer, CloseRacingResetBothComplete) {
  // Regression: close() waits for the drain it requested with a
  // level-triggered check, so a reset() that won the post-drain wakeup and
  // re-armed the slot to Open could make close() sleep forever. Both calls
  // must complete in every interleaving: close() reports the state its
  // drain landed in, reset() re-arms.
  using namespace std::chrono_literals;
  SessionSpec spec;
  spec.keep_detection = false;
  for (int it = 0; it < 20; ++it) {
    StreamServer server({.max_sessions = 1, .queue_capacity_chunks = 4, .workers = 1});
    const SessionId id = server.open(spec);
    ASSERT_EQ(server.push(id, std::vector<i32>(32, 1)), PushResult::Ok);
    server.pause();  // hold the drain so both callers really overlap
    ASSERT_EQ(server.push(id, std::vector<i32>(32, 1)), PushResult::Ok);
    auto closer = std::async(std::launch::async, [&] { return server.close(id); });
    auto resetter = std::async(std::launch::async, [&] { return server.reset(id); });
    std::this_thread::sleep_for(2ms);
    server.resume();
    EXPECT_EQ(closer.get(), SessionState::Closed) << "iteration " << it;
    EXPECT_TRUE(resetter.get()) << "iteration " << it;
  }
}

TEST(StreamServer, ReleaseRacingResetAlwaysRetiresTheSlot) {
  // Retirement is final: even if a reset() re-arms the slot mid-release,
  // release() re-issues the drain and hands the session back.
  using namespace std::chrono_literals;
  SessionSpec spec;
  spec.keep_detection = false;
  for (int it = 0; it < 20; ++it) {
    StreamServer server({.max_sessions = 1, .queue_capacity_chunks = 4, .workers = 1});
    const SessionId id = server.open(spec);
    server.pause();
    ASSERT_EQ(server.push(id, std::vector<i32>(32, 1)), PushResult::Ok);
    auto releaser = std::async(std::launch::async, [&] { return server.release(id); });
    auto resetter = std::async(std::launch::async, [&] { return server.reset(id); });
    std::this_thread::sleep_for(2ms);
    server.resume();
    EXPECT_NE(releaser.get(), nullptr) << "iteration " << it;
    (void)resetter.get();  // true or false: losing to the retirement is legal
    EXPECT_EQ(server.push(id, std::vector<i32>(8, 0)), PushResult::NoSuchSession);
  }
}

TEST(StreamServer, WarmStartResetCarriesTrainedThresholds) {
  // The reconnect cold-start hole: a Cold reset() retrains the detector from
  // zero, so the first ~2 s after a link re-pair detect nothing. An opt-in
  // WarmStart::KeepThresholds reset carries the trained SPK/NPK/RR state and
  // detects immediately. (Cold's bit-identity to a fresh session is pinned
  // by StreamSession.ResetBehavesLikeAFreshSession and
  // StreamServer.ResetMidFlightStartsAFreshRecord.)
  const auto rec = ecg::nsrdb_like_digitized(4, 6000);
  // 1.5 s at 200 Hz: inside the training window, where a cold detector is
  // still blind but a warm one is live.
  const std::size_t kEarly = 300;

  auto beats_after_reset = [&](pantompkins::WarmStart warm) -> u64 {
    using namespace std::chrono_literals;
    StreamServer server({.max_sessions = 1, .workers = 1});
    const SessionId id = server.open(SessionSpec{});
    // Train on the first 4000 samples of the episode...
    for (std::size_t at = 0; at < 4000; at += 100) {
      EXPECT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(at, 100)),
                PushResult::Ok);
    }
    // Let the whole first episode train the detector before the "drop":
    // reset() discards whatever is still queued, which must not eat into
    // the training material this test depends on.
    for (int i = 0; i < 1000 && server.session_stats(id).chunks_processed < 40; ++i) {
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_EQ(server.session_stats(id).chunks_processed, 40u);
    // ...link drops, slot re-arms (reset waits out all in-flight work, so
    // the beat counter is stable here)...
    EXPECT_TRUE(server.reset(id, warm));
    const u64 before = server.session_stats(id).beats;
    // ...and only the first 1.5 s of the new episode arrive. No close():
    // a close would flush, and flush finalizes even an untrained record
    // batch-style — the live question is what gets detected *online*.
    EXPECT_EQ(server.push(id, std::span<const i32>(rec.adu).subspan(0, kEarly)),
              PushResult::Ok);
    for (int i = 0; i < 1000 && server.session_stats(id).chunks_processed < 41; ++i) {
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_EQ(server.session_stats(id).chunks_processed, 41u);  // 40 + the early chunk
    return server.session_stats(id).beats - before;
  };

  const u64 cold = beats_after_reset(pantompkins::WarmStart::Cold);
  const u64 warm = beats_after_reset(pantompkins::WarmStart::KeepThresholds);
  EXPECT_EQ(cold, 0u);  // still training: the hole
  EXPECT_GT(warm, 0u);  // trained thresholds carried: beats from the start
}

/// Records every Options::notify call together with the session's state as
/// the hook saw it. The hook reads session_stats() from inside the call: if
/// the server ever fired it with a shard lock held, that read would
/// self-deadlock (or, in Debug, abort the lock-rank checker).
struct NotifyLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<SessionId, StreamServer::SessionStats>> calls;
  StreamServer* server = nullptr;  ///< set before the first open()

  std::function<void(SessionId)> hook() {
    return [this](SessionId id) {
      const StreamServer::SessionStats ss = server->session_stats(id);
      const std::lock_guard<std::mutex> lock(mu);
      calls.emplace_back(id, ss);
      cv.notify_all();
    };
  }
  std::size_t count(SessionId id) {
    const std::lock_guard<std::mutex> lock(mu);
    return static_cast<std::size_t>(std::count_if(
        calls.begin(), calls.end(), [&](const auto& c) { return c.first == id; }));
  }
  /// Wait until \p id has been named more than \p n times; returns the
  /// stats the latest call saw (state Empty on timeout).
  StreamServer::SessionStats wait_past(SessionId id, std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    StreamServer::SessionStats last;
    const bool ok = cv.wait_for(lock, std::chrono::seconds(30), [&] {
      std::size_t k = 0;
      for (const auto& c : calls) {
        if (c.first == id) {
          ++k;
          last = c.second;
        }
      }
      return k > n;
    });
    return ok ? last : StreamServer::SessionStats{};
  }
};

TEST(StreamServer, NotifyFiresOnEgressEdgeAndOnTheClosedLanding) {
  // The hook names a session when its egress queue goes from empty to
  // non-empty — once per edge, however many events pile up undrained — and
  // when a close() started without waiting lands.
  const auto rec = ecg::nsrdb_like_digitized(4, 9000);
  const std::span<const i32> adu(rec.adu);
  NotifyLog log;
  StreamServer server({.max_sessions = 1,
                       .queue_capacity_chunks = 256,
                       .workers = 1,
                       .event_queue_capacity = 1024,
                       .notify = log.hook()});
  log.server = &server;
  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId id = server.open(spec);
  auto push_range = [&](std::size_t from, std::size_t to) {
    for (std::size_t at = from; at < to; at += 100) {
      ASSERT_EQ(server.push(id, adu.subspan(at, std::min<std::size_t>(100, to - at))),
                PushResult::Ok);
    }
  };
  auto quiesce = [&](u64 chunks) {
    for (int i = 0; i < 3000 && server.session_stats(id).chunks_processed < chunks; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.session_stats(id).chunks_processed, chunks);
  };

  push_range(0, 3000);
  EXPECT_GT(log.wait_past(id, 0).events_queued, 0u);  // published before the call
  quiesce(30);
  // More events land while the first ones are still undrained: no new edge.
  push_range(3000, 6000);
  quiesce(60);
  const auto mid = server.session_stats(id);
  EXPECT_GT(mid.events, log.wait_past(id, 0).events);
  EXPECT_EQ(log.count(id), 1u);

  std::vector<Event> out;
  EXPECT_EQ(server.drain_events(id, out), mid.events_queued);
  push_range(6000, adu.size());  // egress empty again: the next append is an edge
  EXPECT_GT(log.wait_past(id, 1).events_queued, 0u);

  const std::size_t before_close = log.count(id);
  EXPECT_EQ(server.close_start(id), StartResult::Pending);
  const auto landed = log.wait_past(id, before_close);
  EXPECT_EQ(landed.state, SessionState::Closed);
  EXPECT_EQ(landed.chunks_processed, landed.chunks_in);
  // Already landed: the start completes in the call and nothing follows.
  const std::size_t after_close = log.count(id);
  EXPECT_EQ(server.close_start(id), StartResult::Done);
  EXPECT_EQ(server.close(id), SessionState::Closed);
  EXPECT_EQ(log.count(id), after_close);
  (void)server.release(id);
  EXPECT_EQ(server.close_start(id), StartResult::NoSuchSession);
  EXPECT_EQ(server.reset_start(id), StartResult::NoSuchSession);
}

TEST(StreamServer, NotifyFiresOnFaultedLandings) {
  // A Faulted landing is reported whether ingest (an oversize chunk) or a
  // worker (a throwing sink) faulted the session.
  NotifyLog log;
  StreamServer server({.max_sessions = 2,
                       .max_chunk_samples = 128,
                       .workers = 1,
                       .event_queue_capacity = 64,
                       .notify = log.hook()});
  log.server = &server;
  SessionSpec spec;
  spec.keep_detection = false;
  const SessionId oversize = server.open(spec);
  EXPECT_EQ(server.push(oversize, std::vector<i32>(256, 1)), PushResult::Faulted);
  EXPECT_EQ(log.count(oversize), 1u);  // fired before push() returned
  EXPECT_EQ(log.wait_past(oversize, 0).state, SessionState::Faulted);

  const auto rec = ecg::nsrdb_like_digitized(1, 4000);
  spec.sink = [](const Event&) { throw std::runtime_error("sink boom"); };
  const SessionId throwing = server.open(spec);
  for (std::size_t at = 0; at < rec.adu.size(); at += 100) {
    if (server.push(throwing, std::span<const i32>(rec.adu).subspan(at, 100)) != PushResult::Ok) {
      break;
    }
  }
  StreamServer::SessionStats ss;
  for (std::size_t n = 0; ss.state != SessionState::Faulted && n < 8; ++n) {
    ss = log.wait_past(throwing, n);
  }
  EXPECT_EQ(ss.state, SessionState::Faulted);
  EXPECT_EQ(server.session_stats(throwing).error, "sink boom");
}

TEST(StreamServer, DeferredResetCompletesOnTheWorkerAndKeepsLaterChunks) {
  // A reset started while a worker holds the slot returns Pending; the worker
  // re-arms once its batch lands, fires the hook, and then processes the
  // chunks committed after the start as the fresh record's.
  const auto rec = ecg::nsrdb_like_digitized(2, 6000);
  const std::span<const i32> adu(rec.adu);
  NotifyLog log;
  StreamServer server({.max_sessions = 1,
                       .queue_capacity_chunks = 256,
                       .workers = 1,
                       .event_queue_capacity = 1024,
                       .notify = log.hook()});
  log.server = &server;

  std::promise<void> entered;
  std::promise<void> release_sink;
  std::shared_future<void> gate = release_sink.get_future().share();
  bool first = true;
  SessionSpec spec;
  spec.keep_detection = false;
  spec.sink = [&](const Event&) {
    if (!first) return;
    first = false;
    entered.set_value();
    gate.wait();  // hold the worker mid-batch
  };
  const SessionId id = server.open(spec);
  // Quiescent reset: completes in the call, and no notification follows.
  EXPECT_EQ(server.reset_start(id), StartResult::Done);
  EXPECT_EQ(server.session_stats(id).resets, 1u);

  for (std::size_t at = 0; at < adu.size(); at += 100) {
    ASSERT_EQ(server.push(id, adu.subspan(at, 100)), PushResult::Ok);
  }
  entered.get_future().wait();
  const std::size_t before = log.count(id);
  EXPECT_EQ(server.reset_start(id, pantompkins::WarmStart::Cold), StartResult::Pending);
  // Committed after the start: belongs to the fresh record.
  ASSERT_EQ(server.push(id, adu.subspan(0, 2000)), PushResult::Ok);
  EXPECT_EQ(server.session_stats(id).resets, 1u);  // not yet re-armed
  release_sink.set_value();

  StreamServer::SessionStats ss;
  for (std::size_t n = before; ss.resets < 2 && n < before + 8; ++n) {
    ss = log.wait_past(id, n);
  }
  EXPECT_EQ(ss.resets, 2u);
  EXPECT_EQ(ss.state, SessionState::Open);
  EXPECT_EQ(server.close(id), SessionState::Closed);
  const auto done = server.session_stats(id);
  EXPECT_EQ(done.chunks_in, done.chunks_processed + done.queued_chunks + done.dropped_chunks);
  // The fresh record is exactly the chunk committed after the start.
  const std::unique_ptr<Session> fresh = server.release(id);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->samples_pushed(), 2000u);
}

TEST(StreamServer, OpenPlacesSessionsOnTheLeastLoadedShard) {
  // Placement balances live sessions across shards instead of letting the
  // round-robin generation counter pile tenants onto one shard as others
  // free up. shard(id) == id.slot % shards.
  StreamServer server({.max_sessions = 8, .workers = 2, .shards = 2});
  ASSERT_EQ(server.shards(), 2u);
  SessionSpec spec;
  spec.keep_detection = false;

  const SessionId a = server.open(spec);
  const SessionId b = server.open(spec);
  EXPECT_NE(a.slot % 2, b.slot % 2);  // an empty server spreads immediately

  // Free one shard; the next open must land there, not follow the counter.
  (void)server.release(b);
  const SessionId c = server.open(spec);
  EXPECT_EQ(c.slot % 2, b.slot % 2);

  // With the table balanced 1-1 again, two more opens must end up one per
  // shard — whichever the third lands on, the fourth takes the lighter side.
  const SessionId d = server.open(spec);
  const SessionId e = server.open(spec);
  EXPECT_NE(d.slot % 2, e.slot % 2);
}

TEST(StreamSession, WarmStartVsColdResetAtTheSessionLevel) {
  // Same contract one layer down, without a server in the way: cold reset is
  // bit-identical to a fresh session (pinned elsewhere); warm keeps the
  // detector trained through the reset.
  const auto rec = ecg::nsrdb_like_digitized(0, 5000);
  Session s{SessionSpec{}};
  (void)s.push(std::span<const i32>(rec.adu).subspan(0, 4000));
  s.reset(pantompkins::WarmStart::KeepThresholds);
  std::size_t warm_beats = 0;
  for (const Event& ev : s.push(std::span<const i32>(rec.adu).subspan(0, 300))) {
    warm_beats += ev.is_beat() ? 1 : 0;
  }
  EXPECT_GT(warm_beats, 0u);

  s.reset(pantompkins::WarmStart::Cold);
  std::size_t cold_beats = 0;
  for (const Event& ev : s.push(std::span<const i32>(rec.adu).subspan(0, 300))) {
    cold_beats += ev.is_beat() ? 1 : 0;
  }
  EXPECT_EQ(cold_beats, 0u);  // back in the training window
}

TEST(DetectorParamsValidation, RejectsNonPositiveRatesAndNegativeWindows) {
  pantompkins::DetectorParams p;
  EXPECT_TRUE(p.valid());
  p.fs_hz = 0.0;
  EXPECT_FALSE(p.valid());
  p.fs_hz = -200.0;
  EXPECT_FALSE(p.valid());
  p = {};
  p.t_wave_window_samples = -1;
  EXPECT_FALSE(p.valid());
  p = {};
  p.hpf_search_halfwidth = -3;
  EXPECT_FALSE(p.valid());
  p = {};
  p.refractory_samples = -40;
  EXPECT_FALSE(p.valid());

  std::vector<i32> sig(100, 0);
  pantompkins::DetectorParams bad;
  bad.fs_hz = 0.0;
  EXPECT_THROW((void)pantompkins::detect_qrs(sig, sig, sig, bad), std::invalid_argument);
  EXPECT_THROW(pantompkins::OnlineDetector{bad}, std::invalid_argument);
}

TEST(DetectorParamsValidation, RejectsWindowsAboveTheBoundAtEveryEntryPoint) {
  // Windows whose sums overflow int (and a history no stream could trim)
  // are refused before anything is built.
  constexpr int kMax = pantompkins::DetectorParams::kMaxWindowSamples;
  pantompkins::DetectorParams huge;
  huge.mwi_hpf_lag_samples = std::numeric_limits<int>::max();
  huge.hpf_search_halfwidth = std::numeric_limits<int>::max();
  EXPECT_FALSE(huge.valid());
  for (int pantompkins::DetectorParams::*field :
       {&pantompkins::DetectorParams::refractory_samples,
        &pantompkins::DetectorParams::t_wave_window_samples,
        &pantompkins::DetectorParams::mwi_hpf_lag_samples,
        &pantompkins::DetectorParams::alignment_tolerance,
        &pantompkins::DetectorParams::hpf_search_halfwidth,
        &pantompkins::DetectorParams::raw_delay_samples,
        &pantompkins::DetectorParams::raw_refine_halfwidth}) {
    pantompkins::DetectorParams p;
    p.*field = kMax;
    EXPECT_TRUE(p.valid());
    p.*field = kMax + 1;
    EXPECT_FALSE(p.valid());
  }

  std::vector<i32> sig(100, 0);
  EXPECT_THROW((void)pantompkins::detect_qrs(sig, sig, sig, huge), std::invalid_argument);
  EXPECT_THROW(pantompkins::OnlineDetector{huge}, std::invalid_argument);
  SessionSpec bad;
  bad.config.detector = huge;
  EXPECT_THROW(Session{bad}, std::invalid_argument);

  // The server refuses the spec without consuming its only slot.
  StreamServer server({.max_sessions = 1, .workers = 1});
  EXPECT_THROW((void)server.open(bad), std::invalid_argument);
  SessionSpec good;
  good.keep_detection = false;
  const SessionId id = server.open(good);
  EXPECT_EQ(server.push(id, std::vector<i32>(16, 0)), PushResult::Ok);
  EXPECT_EQ(server.close(id), SessionState::Closed);
}

TEST(StreamServer, DeepSessionCannotMonopolizeAWorker) {
  // One worker, one shard, prefilled queues while paused: the service order
  // is fully deterministic. A "deep" session arrives first with 16 queued
  // chunks (two max-size drain batches); three "shallow" sessions arrive
  // after it with one chunk each. The deadline-aware ready list must yield
  // between the deep session's batches so every shallow session is served
  // before the deep back half — instead of the deep session monopolizing the
  // worker until its queue runs dry.
  constexpr std::size_t kChunk = 1000;
  constexpr std::size_t kDeepChunks = 16;
  const ecg::DigitizedRecord deep_rec = ecg::nsrdb_like_digitized(7, kDeepChunks * kChunk);
  const ecg::DigitizedRecord shallow_rec = ecg::nsrdb_like_digitized(8, 4000);

  // Ground truth from a plain Session: the deep feed must emit events in its
  // back half (so "before the last deep push event" is a real constraint) and
  // the shallow feed must emit at least one event during its single push.
  std::size_t deep_push_events = 0;
  std::size_t deep_first_half_events = 0;
  {
    Session deep(SessionSpec{});
    for (std::size_t c = 0; c < kDeepChunks; ++c) {
      deep_push_events +=
          deep.push(std::span<const i32>(deep_rec.adu).subspan(c * kChunk, kChunk)).size();
      if (c == kDeepChunks / 2 - 1) deep_first_half_events = deep_push_events;
    }
    Session shallow(SessionSpec{});
    ASSERT_GT(shallow.push(shallow_rec.adu).size(), 0u);
  }
  ASSERT_GT(deep_push_events, deep_first_half_events)
      << "feed must produce events in the deep session's second drain batch";

  StreamServer::Options opts;
  opts.workers = 1;
  opts.shards = 1;
  opts.queue_capacity_chunks = kDeepChunks;
  StreamServer server(opts);
  server.pause();

  // Unranked leaf lock (the test-code idiom from sync.hpp): sinks run on
  // worker threads with no serving-stack lock held.
  common::Mutex order_mu;
  std::vector<char> order;  // global event arrival order: 'D' deep, 'S' shallow
  const auto tag_sink = [&order_mu, &order](char tag) {
    return [&order_mu, &order, tag](const Event&) {
      const common::MutexLock lock(order_mu);
      order.push_back(tag);
    };
  };

  SessionSpec deep_spec;
  deep_spec.sink = tag_sink('D');
  const SessionId deep_id = server.open(std::move(deep_spec));
  std::array<SessionId, 3> shallow_ids{};
  for (SessionId& id : shallow_ids) {
    SessionSpec spec;
    spec.sink = tag_sink('S');
    id = server.open(std::move(spec));
  }

  // Enqueue while paused: deep first (16 chunks, exactly at capacity), then
  // the shallow sessions. Ready order at resume: deep, s1, s2, s3.
  for (std::size_t c = 0; c < kDeepChunks; ++c) {
    ASSERT_EQ(server.try_push(
                  deep_id, std::span<const i32>(deep_rec.adu).subspan(c * kChunk, kChunk)),
              PushResult::Ok)
        << "chunk " << c;
  }
  for (const SessionId id : shallow_ids) {
    ASSERT_EQ(server.try_push(id, shallow_rec.adu), PushResult::Ok);
  }
  server.resume();
  for (const SessionId id : shallow_ids) {
    EXPECT_EQ(server.close(id), SessionState::Closed);
  }
  EXPECT_EQ(server.close(deep_id), SessionState::Closed);
  EXPECT_EQ(server.session_stats(deep_id).chunks_processed, kDeepChunks);

  // The first deep_push_events 'D's are the deep session's push-phase events
  // (its flush events can only come later). At least one shallow event must
  // land before the last of them.
  const common::MutexLock lock(order_mu);
  std::size_t first_shallow = order.size();
  std::size_t last_deep_push = order.size();
  std::size_t deep_seen = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 'S' && first_shallow == order.size()) first_shallow = i;
    if (order[i] == 'D' && ++deep_seen == deep_push_events) last_deep_push = i;
  }
  ASSERT_LT(first_shallow, order.size()) << "shallow sessions produced no events";
  ASSERT_LT(last_deep_push, order.size());
  EXPECT_LT(first_shallow, last_deep_push)
      << "a deep session monopolized the worker: all " << deep_push_events
      << " deep push events were served before any shallow session";
}

}  // namespace
}  // namespace xbs::stream
