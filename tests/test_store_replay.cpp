// Replay ↔ CSV bit-identity and server-level quarantine semantics.
//
// The claim under test: a record replayed from a checksummed XBS1 file
// through the mmap zero-copy loan path produces EXACTLY the event stream,
// session stats and OpCounts that the CSV ingest path produces — for every
// Fig. 12 approximate configuration and for shard counts {1, 2}. And when
// the file is corrupt, replay fails as a typed StoreError that quarantines
// that record only: the session, its siblings and the process all survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault_inject.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/ecg/io.hpp"
#include "xbs/stream/server.hpp"
#include "xbs/store/replay.hpp"
#include "xbs/store/store.hpp"

namespace xbs::store {
namespace {

using pantompkins::PipelineConfig;
using stream::Event;
using stream::PushResult;
using stream::SessionId;
using stream::SessionSpec;
using stream::StreamServer;

std::string tmp_path(const std::string& name) { return ::testing::TempDir() + name; }

/// Everything the two ingest paths must agree on, bit for bit.
struct DriveResult {
  std::vector<Event> events;
  u64 chunks_processed = 0;
  u64 samples = 0;
  u64 events_n = 0;
  u64 beats = 0;
  arith::OpCounts ops{};
};

void expect_identical(const DriveResult& a, const DriveResult& b, const std::string& what) {
  EXPECT_EQ(a.chunks_processed, b.chunks_processed) << what;
  EXPECT_EQ(a.samples, b.samples) << what;
  EXPECT_EQ(a.events_n, b.events_n) << what;
  EXPECT_EQ(a.beats, b.beats) << what;
  EXPECT_EQ(a.ops, b.ops) << what;
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].peak, b.events[i].peak) << what << " event " << i;
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s) << what << " event " << i;
    EXPECT_EQ(a.events[i].rr_s, b.events[i].rr_s) << what << " event " << i;
    EXPECT_EQ(a.events[i].hr_bpm, b.events[i].hr_bpm) << what << " event " << i;
  }
}

StreamServer::Options server_opts(unsigned shards) {
  StreamServer::Options opts;
  opts.shards = shards;
  opts.workers = shards;  // one worker per shard: deterministic per-session order
  opts.queue_capacity_chunks = 8;
  return opts;
}

/// Finish a drive: close, snapshot the identity-relevant state, release.
DriveResult finish(StreamServer& server, SessionId id, std::vector<Event>&& events) {
  EXPECT_EQ(server.close(id), stream::SessionState::Closed);
  DriveResult r;
  r.events = std::move(events);
  const StreamServer::SessionStats st = server.session_stats(id);
  r.chunks_processed = st.chunks_processed;
  r.samples = st.samples;
  r.events_n = st.events;
  r.beats = st.beats;
  const std::unique_ptr<stream::Session> s = server.release(id);
  EXPECT_NE(s, nullptr);
  if (s != nullptr) r.ops = s->total_ops();
  return r;
}

/// The CSV ingest shape: record → write_csv → read_csv → blocking push()
/// in fixed chunks.
DriveResult drive_csv(const PipelineConfig& cfg, const ecg::DigitizedRecord& rec,
                      unsigned shards, std::size_t chunk) {
  std::stringstream csv;
  ecg::write_csv(csv, rec);
  const ecg::DigitizedRecord loaded = ecg::read_csv(csv);

  StreamServer server(server_opts(shards));
  std::vector<Event> events;
  SessionSpec spec;
  spec.config = cfg;
  spec.sink = [&events](const Event& ev) { events.push_back(ev); };
  const SessionId id = server.open(std::move(spec));
  for (std::size_t at = 0; at < loaded.adu.size(); at += chunk) {
    const std::size_t n = std::min(chunk, loaded.adu.size() - at);
    EXPECT_EQ(server.push(id, std::span<const i32>(loaded.adu).subspan(at, n)),
              PushResult::Ok)
        << "at " << at;
  }
  return finish(server, id, std::move(events));
}

/// The storage shape: record → write_record → mmap replay via loans.
DriveResult drive_replay(const PipelineConfig& cfg, const std::string& path, unsigned shards,
                         std::size_t chunk) {
  StreamServer server(server_opts(shards));
  std::vector<Event> events;
  SessionSpec spec;
  spec.config = cfg;
  spec.sink = [&events](const Event& ev) { events.push_back(ev); };
  const SessionId id = server.open(std::move(spec));

  RecordReader reader(path);
  const ReplayResult rr = replay_record(reader, server, id, chunk);
  EXPECT_EQ(rr.status, PushResult::Ok);
  EXPECT_EQ(rr.samples, reader.header().n_samples);
  return finish(server, id, std::move(events));
}

TEST(StoreReplay, BitIdenticalToCsvAcrossFig12ConfigsAndShards) {
  const ecg::DigitizedRecord rec = ecg::nsrdb_like_digitized(9, 3000);
  const std::string path = tmp_path("replay_fig12.xbs");
  write_record(path, rec);

  for (const auto& named : core::fig12_b_configs()) {
    const PipelineConfig cfg = PipelineConfig::from_lsbs(named.lsbs);
    for (const unsigned shards : {1u, 2u}) {
      const std::string what =
          std::string(named.name) + " shards=" + std::to_string(shards);
      const DriveResult csv = drive_csv(cfg, rec, shards, kSamplesPerPage);
      const DriveResult replay = drive_replay(cfg, path, shards, kSamplesPerPage);
      expect_identical(csv, replay, what);
      EXPECT_EQ(replay.samples, rec.adu.size()) << what;
      EXPECT_GT(replay.events_n, 0u) << what;
    }
  }
}

TEST(StoreReplay, OddChunkSizesStayBitIdentical) {
  // Chunk sizes that straddle page boundaries force samples() to verify two
  // pages per loan — the span is still contiguous and the results identical.
  const ecg::DigitizedRecord rec = ecg::nsrdb_like_digitized(10, 2500);
  const std::string path = tmp_path("replay_odd.xbs");
  write_record(path, rec);
  const PipelineConfig cfg;  // exact-arithmetic default config
  for (const std::size_t chunk : {std::size_t{97}, std::size_t{1023}, std::size_t{1500}}) {
    const DriveResult csv = drive_csv(cfg, rec, 1, chunk);
    const DriveResult replay = drive_replay(cfg, path, 1, chunk);
    expect_identical(csv, replay, "chunk=" + std::to_string(chunk));
  }
}

TEST(StoreReplay, CorruptPageQuarantinesRecordNotSiblingSessions) {
  const ecg::DigitizedRecord rec = ecg::nsrdb_like_digitized(11, 4 * kSamplesPerPage);
  const std::string clean_path = tmp_path("replay_clean.xbs");
  write_record(clean_path, rec);

  // Corrupt payload page 2 of a copy: replay commits pages 0–1, then throws.
  std::vector<u8> img = encode_record(rec);
  const std::size_t tag_pages =
      (RecordReader(clean_path).page_count() * sizeof(u32) + kPageBytes - 1) / kPageBytes;
  img[(1 + tag_pages) * kPageBytes + 2 * kPageBytes + 5] ^= u8{0x01};
  const std::string bad_path = tmp_path("replay_bad.xbs");
  testing::write_file(bad_path, img);

  StreamServer server(server_opts(1));
  std::vector<Event> clean_events, bad_events;
  SessionSpec spec_clean, spec_bad;
  spec_clean.sink = [&clean_events](const Event& ev) { clean_events.push_back(ev); };
  spec_bad.sink = [&bad_events](const Event& ev) { bad_events.push_back(ev); };
  const SessionId ok_id = server.open(std::move(spec_clean));
  const SessionId bad_id = server.open(std::move(spec_bad));

  RecordReader bad_reader(bad_path);
  bool threw = false;
  std::size_t committed = 0;
  try {
    (void)replay_record(bad_reader, server, bad_id, kSamplesPerPage);
  } catch (const StoreError& e) {
    threw = true;
    EXPECT_EQ(e.errc(), StoreErrc::PageCorrupt);
    EXPECT_EQ(e.page(), 2u);
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(bad_reader.quarantined());
  committed = static_cast<std::size_t>(server.session_stats(bad_id).chunks_in);
  EXPECT_EQ(committed, 2u);  // the clean prefix, nothing from the bad page on

  // The sibling session replays the clean file to full fidelity afterwards.
  RecordReader clean_reader(clean_path);
  const ReplayResult rr = replay_record(clean_reader, server, ok_id, kSamplesPerPage);
  EXPECT_EQ(rr.status, PushResult::Ok);
  EXPECT_EQ(rr.samples, rec.adu.size());
  EXPECT_EQ(server.close(ok_id), stream::SessionState::Closed);
  EXPECT_EQ(server.session_stats(ok_id).samples, rec.adu.size());

  // The interrupted session is not faulted — the corruption stayed in the
  // storage layer. It closes cleanly with just the prefix processed.
  EXPECT_EQ(server.close(bad_id), stream::SessionState::Closed);
  EXPECT_EQ(server.session_stats(bad_id).chunks_processed, 2u);

  // And the same server keeps serving: a third session runs fine.
  const SessionId next = server.open(SessionSpec{});
  EXPECT_EQ(server.push(next, std::vector<i32>(256, 0)), PushResult::Ok);
  EXPECT_EQ(server.close(next), stream::SessionState::Closed);
}

}  // namespace
}  // namespace xbs::store
