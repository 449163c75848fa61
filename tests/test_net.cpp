/// \file test_net.cpp
/// \brief The network ingest plane: XBSP codec round-trips and hostile-input
/// behavior, loopback bit-identity against the in-process serving path, warm
/// reconnect re-pairing, connection-level fault isolation and LRU admission.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault_inject.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/net/client.hpp"
#include "xbs/net/protocol.hpp"
#include "xbs/net/server.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/stream/server.hpp"

namespace xbs::net {
namespace {

using namespace std::chrono_literals;
using pantompkins::PipelineConfig;

constexpr std::array<i32, pantompkins::kNumStages> kB9Lsbs = {10, 12, 2, 8, 16};

void expect_events_equal(const std::vector<stream::Event>& a,
                         const std::vector<stream::Event>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].peak, b[i].peak) << what << " event " << i;
    // Doubles travel as IEEE-754 bit patterns: equality must be exact.
    EXPECT_EQ(a[i].time_s, b[i].time_s) << what << " event " << i;
    EXPECT_EQ(a[i].rr_s, b[i].rr_s) << what << " event " << i;
    EXPECT_EQ(a[i].hr_bpm, b[i].hr_bpm) << what << " event " << i;
  }
}

std::vector<std::size_t> ragged_plan(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<std::size_t> plan;
  std::size_t at = 0;
  while (at < n) {
    const auto len =
        std::min<std::size_t>(static_cast<std::size_t>(rng.uniform_int(1, 97)), n - at);
    plan.push_back(len);
    at += len;
  }
  return plan;
}

// ----------------------------------------------------------------- codec

TEST(NetCodec, EveryFrameTypeRoundTrips) {
  std::vector<u8> wire;
  encode_hello(wire);
  OpenFrame open;
  open.token = 0xDEADBEEFCAFE1234ull;
  open.add_kind = AdderKind::Approx3;
  open.mult_kind = MultKind::V2;
  open.policy = ApproxPolicy::Aggressive;
  open.lsbs = kB9Lsbs;
  encode_open(wire, open);
  const std::vector<i32> samples = {0, -1, 1, 1023, -1024, 0x7FFFFFFF, -0x7FFFFFFF};
  encode_chunk(wire, samples);
  encode_drain(wire, 1500);
  encode_close(wire);
  encode_reset(wire, true);
  std::vector<stream::Event> evs(3);
  evs[0].peak.raw_index = 123;
  evs[0].peak.mwi_index = 140;
  evs[0].peak.hpf_index = 130;
  evs[0].peak.mwi_value = -55;
  evs[0].peak.hpf_value = 99;
  evs[0].peak.decision = pantompkins::PeakDecision::Accepted;
  evs[0].time_s = 0.615;
  evs[0].rr_s = 0.83;
  evs[0].hr_bpm = 72.289156626506024;  // exercises non-representable decimals
  evs[1].peak.decision = pantompkins::PeakDecision::TWave;
  evs[1].time_s = -0.0;
  evs[2].peak.decision = pantompkins::PeakDecision::SearchBackRecovered;
  evs[2].hr_bpm = 1e300;
  encode_events(wire, evs);

  // Feed the whole stream one byte at a time: frames must reassemble across
  // arbitrary tears.
  FrameDecoder dec;
  std::vector<std::pair<FrameHeader, std::vector<u8>>> frames;
  for (const u8 b : wire) {
    dec.feed(std::span<const u8>(&b, 1));
    FrameHeader h;
    std::vector<u8> p;
    WireError e = WireError::None;
    while (dec.next(h, p, e) == FrameDecoder::Next::Frame) frames.emplace_back(h, p);
    ASSERT_EQ(e, WireError::None);
  }
  ASSERT_EQ(frames.size(), 7u);

  HelloFrame h2;
  EXPECT_EQ(decode_hello(frames[0].second, h2), WireError::None);
  EXPECT_EQ(h2.version, kProtoVersion);

  OpenFrame o2;
  ASSERT_EQ(decode_open(frames[1].second, o2), WireError::None);
  EXPECT_EQ(o2.token, open.token);
  EXPECT_EQ(o2.add_kind, open.add_kind);
  EXPECT_EQ(o2.mult_kind, open.mult_kind);
  EXPECT_EQ(o2.policy, open.policy);
  EXPECT_EQ(o2.lsbs, open.lsbs);

  std::vector<i32> s2;
  ASSERT_EQ(decode_chunk(frames[2].second, s2), WireError::None);
  EXPECT_EQ(s2, samples);

  DrainFrame d2;
  ASSERT_EQ(decode_drain(frames[3].second, d2), WireError::None);
  EXPECT_EQ(d2.timeout_ms, 1500u);

  EXPECT_EQ(frames[4].first.type, FrameType::Close);
  EXPECT_EQ(frames[4].second.size(), 0u);

  ResetFrame r2;
  ASSERT_EQ(decode_reset(frames[5].second, r2), WireError::None);
  EXPECT_TRUE(r2.warm);

  std::vector<stream::Event> evs2;
  ASSERT_EQ(decode_events(frames[6].second, evs2), WireError::None);
  expect_events_equal(evs, evs2, "event round trip");
  EXPECT_TRUE(std::signbit(evs2[1].time_s));  // -0.0 survives bit-exactly
}

TEST(NetCodec, StatsAndErrorRoundTrip) {
  std::vector<u8> wire;
  StatsFrame st;
  st.ack = StatsAck::Resumed;
  st.session_state = 1;
  st.chunks_in = 7;
  st.rejected_chunks = 2;
  st.resets = 1;
  st.net_events_shed = 42;
  encode_stats(wire, st);
  encode_error(wire, WireError::Oversize, "chunk too big");
  FrameDecoder dec;
  dec.feed(wire);
  FrameHeader h;
  std::vector<u8> p;
  WireError e = WireError::None;
  ASSERT_EQ(dec.next(h, p, e), FrameDecoder::Next::Frame);
  StatsFrame st2;
  ASSERT_EQ(decode_stats(p, st2), WireError::None);
  EXPECT_EQ(st2.ack, StatsAck::Resumed);
  EXPECT_EQ(st2.chunks_in, 7u);
  EXPECT_EQ(st2.rejected_chunks, 2u);
  EXPECT_EQ(st2.resets, 1u);
  EXPECT_EQ(st2.net_events_shed, 42u);
  ASSERT_EQ(dec.next(h, p, e), FrameDecoder::Next::Frame);
  ErrorFrame ef;
  ASSERT_EQ(decode_error(p, ef), WireError::None);
  EXPECT_EQ(ef.code, WireError::Oversize);
  EXPECT_EQ(ef.message, "chunk too big");
  EXPECT_EQ(dec.next(h, p, e), FrameDecoder::Next::NeedMore);
}

TEST(NetCodec, MalformedHeadersAreFatalAndSticky) {
  struct Case {
    const char* name;
    std::vector<u8> bytes;
    WireError want;
  };
  std::vector<u8> good;
  encode_close(good);
  std::vector<Case> cases;
  {
    auto b = good;
    b[0] ^= 0xFF;  // magic
    cases.push_back({"bad magic", b, WireError::BadMagic});
  }
  {
    auto b = good;
    b[4] = 0x7E;  // unknown frame type
    cases.push_back({"unknown type", b, WireError::UnknownType});
  }
  {
    auto b = good;
    b[5] = 1;  // nonzero flags
    cases.push_back({"nonzero flags", b, WireError::BadHeader});
  }
  {
    auto b = good;
    b[6] = 1;  // nonzero reserved
    cases.push_back({"nonzero reserved", b, WireError::BadHeader});
  }
  {
    auto b = good;
    b[11] = 0x7F;  // payload_len > bound
    cases.push_back({"oversize", b, WireError::Oversize});
  }
  for (const Case& c : cases) {
    FrameDecoder dec;
    dec.feed(c.bytes);
    FrameHeader h;
    std::vector<u8> p;
    WireError e = WireError::None;
    ASSERT_EQ(dec.next(h, p, e), FrameDecoder::Next::Error) << c.name;
    EXPECT_EQ(e, c.want) << c.name;
    EXPECT_TRUE(is_fatal(e)) << c.name;
    // Sticky: a framing error has no resync point, so the stream stays dead
    // even when valid bytes follow.
    dec.feed(good);
    EXPECT_EQ(dec.next(h, p, e), FrameDecoder::Next::Error) << c.name;
  }
}

TEST(NetCodec, TruncatedAndOverlongPayloadsAreMalformed) {
  OpenFrame f;
  std::vector<u8> wire;
  encode_open(wire, f);
  std::span<const u8> payload(wire.data() + kHeaderBytes, wire.size() - kHeaderBytes);
  OpenFrame out;
  // Every truncation of a valid payload must decode to Malformed, not UB.
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_EQ(decode_open(payload.subspan(0, n), out), WireError::Malformed) << n;
  }
  // Trailing garbage is Malformed too (exact layouts only).
  std::vector<u8> longer(payload.begin(), payload.end());
  longer.push_back(0);
  EXPECT_EQ(decode_open(longer, out), WireError::Malformed);
  // Out-of-range enums from the wire must not become out-of-range enums here.
  std::vector<u8> bad(payload.begin(), payload.end());
  bad[8] = 0xFF;
  EXPECT_EQ(decode_open(bad, out), WireError::Malformed);
  bad = {payload.begin(), payload.end()};
  bad[12] = 0xFF;  // lsbs[0] = negative/huge
  EXPECT_EQ(decode_open(bad, out), WireError::Malformed);

  HelloFrame hf;
  EXPECT_EQ(decode_hello(std::span<const u8>(), hf), WireError::Malformed);
  DrainFrame df;
  EXPECT_EQ(decode_drain(std::span<const u8>(), df), WireError::Malformed);
  ResetFrame rf;
  std::vector<u8> warm2 = {2, 0, 0, 0};
  EXPECT_EQ(decode_reset(warm2, rf), WireError::Malformed);
  // EVENT count lying about the payload size must be caught up front.
  std::vector<u8> evp = {0xFF, 0xFF, 0, 0, 0, 0, 0, 0};
  std::vector<stream::Event> evs;
  EXPECT_EQ(decode_events(evp, evs), WireError::Malformed);
  std::vector<i32> chunk;
  std::vector<u8> odd = {1, 2, 3};
  EXPECT_EQ(decode_chunk(odd, chunk), WireError::Malformed);
}

TEST(NetCodec, RandomBytesNeverCrashTheDecoder) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    FrameDecoder dec;
    std::vector<u8> noise(static_cast<std::size_t>(rng.uniform_int(1, 512)));
    for (u8& b : noise) b = static_cast<u8>(rng.uniform_int(0, 255));
    // Occasionally start from a valid header so payload parsing is reached.
    if (trial % 3 == 0) {
      std::vector<u8> hdr;
      put_header(hdr, static_cast<FrameType>(rng.uniform_int(1, 6)),
                 noise.size() > kHeaderBytes ? noise.size() - kHeaderBytes : 0);
      std::copy(hdr.begin(), hdr.end(), noise.begin());
    }
    std::size_t at = 0;
    while (at < noise.size()) {
      const std::size_t len = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 64)), noise.size() - at);
      dec.feed(std::span<const u8>(noise.data() + at, len));
      at += len;
      FrameHeader h;
      std::vector<u8> p;
      WireError e = WireError::None;
      FrameDecoder::Next nx;
      while ((nx = dec.next(h, p, e)) == FrameDecoder::Next::Frame) {
        // Whatever came out, every payload decoder must reject or accept
        // without crashing or reading out of bounds.
        HelloFrame hf;
        (void)decode_hello(p, hf);
        OpenFrame of;
        (void)decode_open(p, of);
        DrainFrame df;
        (void)decode_drain(p, df);
        ResetFrame rf;
        (void)decode_reset(p, rf);
        std::vector<stream::Event> evs;
        (void)decode_events(p, evs);
        StatsFrame sf;
        (void)decode_stats(p, sf);
        ErrorFrame ef;
        (void)decode_error(p, ef);
        std::vector<i32> ch;
        (void)decode_chunk(p, ch);
      }
      if (nx == FrameDecoder::Next::Error) break;
    }
  }
}

// ------------------------------------------------------------- loopback

struct NetDrive {
  std::vector<stream::Event> events;
  StatsFrame final_stats;
};

/// Drive a whole record through the server over TCP and return everything
/// that came back.
NetDrive drive_over_net(NetServer& server, u64 token,
                        const std::array<i32, pantompkins::kNumStages>& lsbs,
                        std::span<const i32> adu, const std::vector<std::size_t>& plan) {
  NetClient cli;
  cli.connect("127.0.0.1", server.port());
  OpenFrame f;
  f.token = token;
  f.lsbs = lsbs;
  (void)cli.open(f);
  NetDrive out;
  std::size_t at = 0;
  for (const std::size_t len : plan) {
    cli.send_chunk(adu.subspan(at, len));
    at += len;
    (void)cli.take_events(out.events);  // keep the pipe flowing
  }
  out.final_stats = cli.close_session();  // EVENTs before the ack collect too
  (void)cli.take_events(out.events);
  return out;
}

/// The in-process reference: one record through a StreamServer, closed
/// (the same spec shape as NetServer's admit()).
struct RefRecord {
  std::vector<stream::Event> events;
  stream::StreamServer::SessionStats stats;
};

RefRecord reference_record(const stream::StreamServer::Options& so,
                           const std::array<i32, pantompkins::kNumStages>& lsbs,
                           std::span<const i32> adu, const std::vector<std::size_t>& plan) {
  RefRecord out;
  stream::StreamServer ref(so);
  OpenFrame f;
  f.lsbs = lsbs;
  stream::SessionSpec spec;
  spec.config = f.config();
  spec.keep_detection = false;
  const auto id = ref.open(spec);
  std::size_t at = 0;
  for (const std::size_t len : plan) {
    EXPECT_EQ(ref.push(id, adu.subspan(at, len)), stream::PushResult::Ok);
    at += len;
  }
  EXPECT_EQ(ref.close(id), stream::SessionState::Closed);
  (void)ref.drain_events(id, out.events);
  out.stats = ref.session_stats(id);
  return out;
}

void expect_ledger_equal(const stream::StreamServer::SessionStats& want, const StatsFrame& got,
                         const std::string& what) {
  EXPECT_EQ(got.session_state, static_cast<u8>(want.state)) << what;
  EXPECT_EQ(got.chunks_in, want.chunks_in) << what;
  EXPECT_EQ(got.chunks_processed, want.chunks_processed) << what;
  EXPECT_EQ(got.rejected_chunks, want.rejected_chunks) << what;
  EXPECT_EQ(got.dropped_chunks, want.dropped_chunks) << what;
  EXPECT_EQ(got.samples, want.samples) << what;
  EXPECT_EQ(got.events, want.events) << what;
  EXPECT_EQ(got.beats, want.beats) << what;
  EXPECT_EQ(got.events_dropped, want.events_dropped) << what;
  EXPECT_EQ(got.resets, want.resets) << what;
}

TEST(NetLoopback, BitIdenticalToInProcessServingAcrossShardsAndConfigs) {
  const auto rec = ecg::nsrdb_like_digitized(0, 6000);
  const auto plan = ragged_plan(rec.adu.size(), 77);
  const std::array<i32, pantompkins::kNumStages> kExact{};
  int pass = 0;
  for (const unsigned shards : {1u, 2u}) {
    for (const auto& lsbs : {kExact, kB9Lsbs}) {
      ++pass;
      const std::string what =
          "shards=" + std::to_string(shards) + " pass=" + std::to_string(pass);
      stream::StreamServer::Options so;
      so.shards = shards;
      so.workers = 2;
      so.queue_capacity_chunks = 4096;  // >= chunk count: the stall path never fires
      so.event_queue_capacity = 1 << 16;

      // In-process reference: same options, same spec shape as admit().
      const RefRecord ref = reference_record(so, lsbs, rec.adu, plan);
      const std::vector<stream::Event>& ref_events = ref.events;
      const stream::StreamServer::SessionStats& ref_stats = ref.stats;

      NetServer::Options no;
      no.stream = so;
      NetServer server(no);
      const NetDrive got = drive_over_net(server, 0xAB0000 + static_cast<u64>(pass),
                                          lsbs, rec.adu, plan);

      expect_events_equal(ref_events, got.events, what);
      EXPECT_GT(got.events.size(), 0u) << what;
      EXPECT_EQ(got.final_stats.samples, ref_stats.samples) << what;
      EXPECT_EQ(got.final_stats.events, ref_stats.events) << what;
      EXPECT_EQ(got.final_stats.beats, ref_stats.beats) << what;
      EXPECT_EQ(got.final_stats.chunks_in, plan.size()) << what;
      EXPECT_EQ(got.final_stats.chunks_processed, plan.size()) << what;
      EXPECT_EQ(got.final_stats.rejected_chunks, 0u) << what;
      EXPECT_EQ(got.final_stats.dropped_chunks, 0u) << what;
      EXPECT_EQ(got.final_stats.session_state,
                static_cast<u8>(stream::SessionState::Closed))
          << what;
      const auto ns = server.stats();
      EXPECT_EQ(ns.events_shed, 0u) << what;
      EXPECT_EQ(ns.protocol_errors, 0u) << what;
    }
  }
}

TEST(NetLoopback, DisconnectReconnectResumesWarm) {
  const auto rec = ecg::nsrdb_like_digitized(2, 8000);
  const std::span<const i32> adu(rec.adu);
  const std::size_t half = adu.size() / 2;
  const auto plan_a = ragged_plan(half, 11);
  const auto plan_b = ragged_plan(adu.size() - half, 12);

  stream::StreamServer::Options so;
  so.shards = 1;
  so.workers = 1;
  so.queue_capacity_chunks = 4096;
  so.event_queue_capacity = 1 << 16;

  // Reference: one in-process session, warm reset at the split point —
  // exactly what park + resume must reproduce.
  std::vector<stream::Event> ref_a;
  std::vector<stream::Event> ref_b;
  {
    stream::StreamServer ref(so);
    stream::SessionSpec spec;
    spec.config = OpenFrame{}.config();
    spec.keep_detection = false;
    const auto id = ref.open(spec);
    std::size_t at = 0;
    for (const std::size_t len : plan_a) {
      ASSERT_EQ(ref.push(id, adu.subspan(at, len)), stream::PushResult::Ok);
      at += len;
    }
    // Quiesce, then drain before the reset (reset drops undrained egress).
    while (ref.session_stats(id).chunks_processed < plan_a.size()) {
      std::this_thread::sleep_for(1ms);
    }
    (void)ref.drain_events(id, ref_a);
    ASSERT_TRUE(ref.reset(id, pantompkins::WarmStart::KeepThresholds));
    for (const std::size_t len : plan_b) {
      ASSERT_EQ(ref.push(id, adu.subspan(at, len)), stream::PushResult::Ok);
      at += len;
    }
    EXPECT_EQ(ref.close(id), stream::SessionState::Closed);
    (void)ref.drain_events(id, ref_b);
  }

  NetServer::Options no;
  no.stream = so;
  NetServer server(no);
  const u64 token = 0x517EA1;
  std::vector<stream::Event> got_a;
  std::vector<stream::Event> got_b;
  {
    NetClient cli;
    cli.connect("127.0.0.1", server.port());
    OpenFrame f;
    f.token = token;
    const auto ack = cli.open(f);
    EXPECT_EQ(ack.ack, StatsAck::Open);
    std::size_t at = 0;
    for (const std::size_t len : plan_a) {
      cli.send_chunk(adu.subspan(at, len));
      at += len;
    }
    // Everything processed and drained to this client before it "dies".
    while (cli.drain(50).chunks_processed < plan_a.size()) {
      std::this_thread::sleep_for(1ms);
    }
    // One more drain after quiescence: the final DRAIN above flushed events
    // before snapshotting stats, so a tail event could postdate that flush.
    (void)cli.drain(0);
    (void)cli.take_events(got_a);
    cli.disconnect();  // mid-record: the server parks the session warm
  }
  {
    NetClient cli;
    cli.connect("127.0.0.1", server.port());
    OpenFrame f;
    f.token = token;
    // The park is asynchronous: OPEN may race it and see SessionBusy, so
    // retry — this is the documented reconnect idiom.
    const auto ack = cli.open(f, /*busy_retry_for=*/2s);
    EXPECT_EQ(ack.ack, StatsAck::Resumed);
    EXPECT_EQ(ack.resets, 1u);  // the park's reset(KeepThresholds)
    std::size_t at = half;
    for (const std::size_t len : plan_b) {
      cli.send_chunk(adu.subspan(at, len));
      at += len;
    }
    (void)cli.close_session();
    (void)cli.take_events(got_b);
  }
  expect_events_equal(ref_a, got_a, "first half");
  expect_events_equal(ref_b, got_b, "second half (warm resume)");
  EXPECT_GT(got_b.size(), 0u);
  const auto ns = server.stats();
  EXPECT_EQ(ns.sessions_parked, 1u);
  EXPECT_EQ(ns.sessions_resumed, 1u);
}

// ------------------------------------------------------- hostile clients

int raw_connect(u16 port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &a.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a), 0);
  return fd;
}

/// Read until EOF (the server hung up) and return everything received.
std::vector<u8> read_to_eof(int fd) {
  std::vector<u8> all;
  u8 buf[4096];
  while (true) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    all.insert(all.end(), buf, buf + r);
  }
  return all;
}

WireError first_error_code(const std::vector<u8>& bytes) {
  FrameDecoder dec;
  dec.feed(bytes);
  FrameHeader h;
  std::vector<u8> p;
  WireError e = WireError::None;
  while (dec.next(h, p, e) == FrameDecoder::Next::Frame) {
    if (h.type != FrameType::Error) continue;
    ErrorFrame ef;
    if (decode_error(p, ef) == WireError::None) return ef.code;
  }
  return WireError::None;
}

TEST(NetHostile, MalformedFloodQuarantinesOnlyItsConnection) {
  const auto rec = ecg::nsrdb_like_digitized(1, 6000);
  const auto plan = ragged_plan(rec.adu.size(), 31);
  stream::StreamServer::Options so;
  so.queue_capacity_chunks = 4096;
  so.event_queue_capacity = 1 << 16;
  NetServer::Options no;
  no.stream = so;
  NetServer server(no);

  // A healthy client streams a record while hostile connections flood
  // garbage; the hostile connections die, the healthy one must not notice.
  auto healthy = std::async(std::launch::async, [&] {
    return drive_over_net(server, 0x600D, {}, rec.adu, plan);
  });

  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    const int fd = raw_connect(server.port());
    std::vector<u8> junk(256);
    for (u8& b : junk) b = static_cast<u8>(rng.uniform_int(0, 255));
    junk[0] = 0x00;  // guarantee the magic check fails up front
    (void)::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    const auto reply = read_to_eof(fd);  // ERROR frame, then the server hangs up
    EXPECT_TRUE(is_fatal(first_error_code(reply))) << "flood " << i;
    ::close(fd);
  }
  // Skipping HELLO is its own fatal violation.
  {
    const int fd = raw_connect(server.port());
    std::vector<u8> frame;
    encode_close(frame);
    (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    EXPECT_EQ(first_error_code(read_to_eof(fd)), WireError::HelloRequired);
    ::close(fd);
  }

  const NetDrive got = healthy.get();
  EXPECT_GT(got.events.size(), 0u);
  EXPECT_EQ(got.final_stats.chunks_processed, plan.size());
  EXPECT_EQ(got.final_stats.session_state,
            static_cast<u8>(stream::SessionState::Closed));
  const auto ns = server.stats();
  EXPECT_GE(ns.protocol_errors, 9u);
  EXPECT_EQ(server.stream().stats().faulted, 0u);  // no session was harmed
}

TEST(NetHostile, LruEvictionAdmitsNewSessionsPastTheCeiling) {
  stream::StreamServer::Options so;
  so.max_sessions = 2;
  so.event_queue_capacity = 64;
  NetServer::Options no;
  no.stream = so;
  NetServer server(no);

  NetClient cli;
  cli.connect("127.0.0.1", server.port());
  // Two finished records fill both slots with Closed-but-unreleased state.
  for (const u64 token : {1ull, 2ull}) {
    OpenFrame f;
    f.token = token;
    EXPECT_EQ(cli.open(f).ack, StatsAck::Open);
    cli.send_chunk(std::vector<i32>(64, 0));
    (void)cli.close_session();
  }
  // A third OPEN would exceed max_sessions: the front door evicts the
  // least-recently-used closed slot instead of refusing.
  OpenFrame f3;
  f3.token = 3;
  EXPECT_EQ(cli.open(f3).ack, StatsAck::Open);
  EXPECT_EQ(server.stats().sessions_evicted, 1u);

  // Both slots attached to live connections: nothing is evictable and the
  // refusal is explicit.
  NetClient cli2;
  cli2.connect("127.0.0.1", server.port());
  OpenFrame f4;
  f4.token = 4;
  EXPECT_EQ(cli2.open(f4).ack, StatsAck::Open);  // evicts the closed token-2 slot
  EXPECT_EQ(server.stats().sessions_evicted, 2u);
  NetClient cli3;
  cli3.connect("127.0.0.1", server.port());
  OpenFrame f5;
  f5.token = 5;
  try {
    (void)cli3.open(f5);
    FAIL() << "expected SessionLimit";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), WireError::SessionLimit);
  }
  // The connection survives a semantic refusal: a retry after capacity
  // frees (client 1 closes its record) succeeds on the same socket.
  (void)cli.close_session();
  EXPECT_EQ(cli3.open(f5).ack, StatsAck::Open);
}

TEST(NetHostile, OversizeChunkClosesConnectionWithoutFaultingSession) {
  stream::StreamServer::Options so;
  so.max_chunk_samples = 128;
  so.event_queue_capacity = 64;
  NetServer::Options no;
  no.stream = so;
  NetServer server(no);

  NetClient cli;
  cli.connect("127.0.0.1", server.port());
  OpenFrame f;
  f.token = 77;
  (void)cli.open(f);
  try {
    cli.send_chunk(std::vector<i32>(4096, 1));  // over max_chunk_samples
    // The refusal races the send; poll until the hangup surfaces.
    for (int i = 0; i < 100 && cli.connected(); ++i) {
      std::vector<stream::Event> sink;
      (void)cli.take_events(sink);
      std::this_thread::sleep_for(5ms);
    }
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), WireError::Oversize);
  } catch (const std::runtime_error&) {
    // send() hit the reset first: equally fine, the connection is gone.
  }
  // The session parked warm instead of faulting; the same token resumes.
  NetClient cli2;
  cli2.connect("127.0.0.1", server.port());
  const auto ack = cli2.open(f, /*busy_retry_for=*/2s);
  EXPECT_EQ(ack.ack, StatsAck::Resumed);
  EXPECT_EQ(server.stream().stats().faulted, 0u);
}

// ------------------------------------------------------ one event loop
//
// The loop serves every connection; control replies complete on the stream
// layer's completion hook. These pin the ordering and threading contract.

/// A raw XBSP connection: pipelined sends, frame-by-frame reads.
class RawConn {
 public:
  explicit RawConn(u16 port) : fd_(raw_connect(port)) {
    timeval tv{};
    tv.tv_sec = 10;  // a lost reply fails the test instead of hanging it
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~RawConn() { hang_up(); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send_bytes(const std::vector<u8>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << "send failed";
      off += static_cast<std::size_t>(w);
    }
  }

  struct Frame {
    FrameType type = FrameType::Error;
    std::vector<u8> payload;
  };

  /// Block until the next whole frame arrives.
  Frame next() {
    Frame f;
    FrameHeader h;
    WireError e = WireError::None;
    u8 buf[16384];
    while (true) {
      const FrameDecoder::Next nx = dec_.next(h, f.payload, e);
      if (nx == FrameDecoder::Next::Frame) {
        f.type = h.type;
        return f;
      }
      if (nx == FrameDecoder::Next::Error) {
        ADD_FAILURE() << "framing error: " << to_string(e);
        return f;
      }
      const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r <= 0) {
        ADD_FAILURE() << "connection closed or timed out before the next frame";
        return f;
      }
      dec_.feed(std::span<const u8>(buf, static_cast<std::size_t>(r)));
    }
  }

  /// Read up to the next STATS frame, collecting the EVENTs before it.
  StatsFrame stats(std::vector<stream::Event>* events = nullptr) {
    while (true) {
      const Frame f = next();
      if (f.type == FrameType::Event) {
        std::vector<stream::Event> evs;
        EXPECT_EQ(decode_events(f.payload, evs), WireError::None);
        if (events != nullptr) events->insert(events->end(), evs.begin(), evs.end());
        continue;
      }
      StatsFrame st;
      EXPECT_EQ(f.type, FrameType::Stats) << "expected STATS";
      if (f.type == FrameType::Error) {
        ErrorFrame ef;
        (void)decode_error(f.payload, ef);
        ADD_FAILURE() << "ERROR " << to_string(ef.code) << ": " << ef.message;
      }
      if (f.type == FrameType::Stats) {
        EXPECT_EQ(decode_stats(f.payload, st), WireError::None);
      }
      return st;
    }
  }

  void hang_up() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  FrameDecoder dec_{};
};

std::vector<u8> hello_open(u64 token, const std::array<i32, pantompkins::kNumStages>& lsbs) {
  std::vector<u8> wire;
  encode_hello(wire);
  OpenFrame f;
  f.token = token;
  f.lsbs = lsbs;
  encode_open(wire, f);
  return wire;
}

void encode_chunks(std::vector<u8>& wire, std::span<const i32> adu,
                   const std::vector<std::size_t>& plan) {
  std::size_t at = 0;
  for (const std::size_t len : plan) {
    encode_chunk(wire, adu.subspan(at, len));
    at += len;
  }
}

stream::StreamServer::Options loop_options() {
  stream::StreamServer::Options so;
  so.shards = 1;
  so.workers = 2;
  so.queue_capacity_chunks = 4096;  // >= chunk count: the stall path never fires
  so.event_queue_capacity = 1 << 16;
  return so;
}

TEST(NetLoopback, PipelinedCloseThenOpenAnswersInRequestOrder) {
  // CLOSE; OPEN; CHUNK x k; CLOSE in one send: the first record's flush
  // tail and CLOSE ack come before the second OPEN's ack, and both records
  // match the in-process close() path bit for bit, events and ledger.
  const auto rec_a = ecg::nsrdb_like_digitized(0, 6000);
  const auto rec_b = ecg::nsrdb_like_digitized(3, 5000);
  const auto plan_a = ragged_plan(rec_a.adu.size(), 41);
  const auto plan_b = ragged_plan(rec_b.adu.size(), 42);
  const auto so = loop_options();
  const RefRecord ref_a = reference_record(so, {}, rec_a.adu, plan_a);
  const RefRecord ref_b = reference_record(so, kB9Lsbs, rec_b.adu, plan_b);
  ASSERT_GT(ref_a.events.size(), 0u);
  ASSERT_GT(ref_b.events.size(), 0u);

  NetServer::Options no;
  no.stream = so;
  NetServer server(no);
  RawConn conn(server.port());
  conn.send_bytes(hello_open(0xA1, {}));
  EXPECT_EQ(conn.stats().ack, StatsAck::Hello);
  EXPECT_EQ(conn.stats().ack, StatsAck::Open);
  std::vector<u8> wire;
  encode_chunks(wire, rec_a.adu, plan_a);
  conn.send_bytes(wire);

  wire.clear();
  encode_close(wire);
  OpenFrame open_b;
  open_b.token = 0xB2;
  open_b.lsbs = kB9Lsbs;
  encode_open(wire, open_b);
  encode_chunks(wire, rec_b.adu, plan_b);
  encode_close(wire);
  conn.send_bytes(wire);

  std::vector<stream::Event> got_a;
  const StatsFrame close_a = conn.stats(&got_a);
  EXPECT_EQ(close_a.ack, StatsAck::Close);
  std::vector<stream::Event> between;
  const StatsFrame open_ack = conn.stats(&between);
  EXPECT_EQ(open_ack.ack, StatsAck::Open);
  EXPECT_TRUE(between.empty()) << "events between the CLOSE ack and the OPEN ack";
  std::vector<stream::Event> got_b;
  const StatsFrame close_b = conn.stats(&got_b);
  EXPECT_EQ(close_b.ack, StatsAck::Close);

  expect_events_equal(ref_a.events, got_a, "record A");
  expect_events_equal(ref_b.events, got_b, "record B");
  expect_ledger_equal(ref_a.stats, close_a, "record A ledger");
  expect_ledger_equal(ref_b.stats, close_b, "record B ledger");
  EXPECT_EQ(server.stats().events_shed, 0u);
}

TEST(NetLoopback, PipelinedResetThenChunksLandInTheFreshRecord) {
  // RESET(warm); CHUNK x k; CLOSE in one send: the CHUNKs behind the RESET
  // belong to the fresh record, which matches the in-process reset() path
  // bit for bit, events and ledger.
  const auto rec = ecg::nsrdb_like_digitized(2, 8000);
  const std::span<const i32> adu(rec.adu);
  const std::size_t half = adu.size() / 2;
  const auto plan_a = ragged_plan(half, 51);
  const auto plan_b = ragged_plan(adu.size() - half, 52);
  const auto so = loop_options();

  std::vector<stream::Event> ref_b;
  stream::StreamServer::SessionStats ref_stats;
  {
    stream::StreamServer ref(so);
    stream::SessionSpec spec;
    spec.config = OpenFrame{}.config();
    spec.keep_detection = false;
    const auto id = ref.open(spec);
    std::size_t at = 0;
    for (const std::size_t len : plan_a) {
      ASSERT_EQ(ref.push(id, adu.subspan(at, len)), stream::PushResult::Ok);
      at += len;
    }
    while (ref.session_stats(id).chunks_processed < plan_a.size()) {
      std::this_thread::sleep_for(1ms);
    }
    std::vector<stream::Event> drained;
    (void)ref.drain_events(id, drained);
    ASSERT_TRUE(ref.reset(id, pantompkins::WarmStart::KeepThresholds));
    for (const std::size_t len : plan_b) {
      ASSERT_EQ(ref.push(id, adu.subspan(at, len)), stream::PushResult::Ok);
      at += len;
    }
    EXPECT_EQ(ref.close(id), stream::SessionState::Closed);
    (void)ref.drain_events(id, ref_b);
    ref_stats = ref.session_stats(id);
  }
  ASSERT_GT(ref_b.size(), 0u);

  NetServer::Options no;
  no.stream = so;
  NetServer server(no);
  RawConn conn(server.port());
  conn.send_bytes(hello_open(0x5E7, {}));
  EXPECT_EQ(conn.stats().ack, StatsAck::Hello);
  EXPECT_EQ(conn.stats().ack, StatsAck::Open);
  std::vector<u8> wire;
  encode_chunks(wire, adu.subspan(0, half), plan_a);
  conn.send_bytes(wire);
  // Everything processed and delivered before the RESET goes out.
  while (true) {
    wire.clear();
    encode_drain(wire, 50);
    conn.send_bytes(wire);
    if (conn.stats().chunks_processed == plan_a.size()) break;
    std::this_thread::sleep_for(1ms);
  }
  wire.clear();
  encode_drain(wire, 0);
  conn.send_bytes(wire);
  (void)conn.stats();

  wire.clear();
  encode_reset(wire, /*warm=*/true);
  encode_chunks(wire, adu.subspan(half), plan_b);
  encode_close(wire);
  conn.send_bytes(wire);
  std::vector<stream::Event> early;
  const StatsFrame reset_ack = conn.stats(&early);
  EXPECT_EQ(reset_ack.ack, StatsAck::Reset);
  EXPECT_TRUE(early.empty()) << "events between the last DRAIN ack and the RESET ack";
  std::vector<stream::Event> got_b;
  const StatsFrame close_ack = conn.stats(&got_b);
  EXPECT_EQ(close_ack.ack, StatsAck::Close);

  expect_events_equal(ref_b, got_b, "fresh record");
  expect_ledger_equal(ref_stats, close_ack, "fresh record ledger");
}

TEST(NetLoopback, ResetBehindUnprocessedChunksKeepsTheChunksAfterIt) {
  // CHUNKs, RESET(cold), CHUNKs, CLOSE in one send, with no sync point: the
  // RESET usually lands while a worker still holds the first record's batch
  // (the deferred re-arm). Whatever the first record managed, the fresh
  // record is exactly the chunks after the RESET, as if freshly opened.
  const auto rec_a = ecg::nsrdb_like_digitized(5, 6000);
  const auto rec_b = ecg::nsrdb_like_digitized(6, 6000);
  const auto plan_a = ragged_plan(rec_a.adu.size(), 61);
  const auto plan_b = ragged_plan(rec_b.adu.size(), 62);
  const auto so = loop_options();
  const RefRecord ref_b = reference_record(so, {}, rec_b.adu, plan_b);
  ASSERT_GT(ref_b.events.size(), 0u);

  NetServer::Options no;
  no.stream = so;
  NetServer server(no);
  for (int round = 0; round < 4; ++round) {
    RawConn conn(server.port());
    conn.send_bytes(hello_open(0xC0 + static_cast<u64>(round), {}));
    EXPECT_EQ(conn.stats().ack, StatsAck::Hello);
    EXPECT_EQ(conn.stats().ack, StatsAck::Open);
    std::vector<u8> wire;
    encode_chunks(wire, rec_a.adu, plan_a);
    encode_reset(wire, /*warm=*/false);
    encode_chunks(wire, rec_b.adu, plan_b);
    encode_close(wire);
    conn.send_bytes(wire);
    const StatsFrame reset_ack = conn.stats();
    EXPECT_EQ(reset_ack.ack, StatsAck::Reset);
    EXPECT_EQ(reset_ack.resets, 1u);
    std::vector<stream::Event> got_b;
    const StatsFrame close_ack = conn.stats(&got_b);
    EXPECT_EQ(close_ack.ack, StatsAck::Close);
    const std::string what = "round " + std::to_string(round);
    expect_events_equal(ref_b.events, got_b, what);
    EXPECT_EQ(close_ack.chunks_in, plan_a.size() + plan_b.size()) << what;
    EXPECT_EQ(close_ack.chunks_in, close_ack.chunks_processed + close_ack.dropped_chunks) << what;
    EXPECT_EQ(close_ack.session_state, static_cast<u8>(stream::SessionState::Closed)) << what;
  }
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(NetServerThreads, ConnectionsCostNoThreads) {
  stream::StreamServer::Options so;
  so.workers = 2;
  so.event_queue_capacity = 64;
  NetServer::Options no;
  no.stream = so;
  NetServer server(no);
  const std::size_t base = thread_count();
  std::vector<std::unique_ptr<NetClient>> clients;
  for (int i = 0; i < 32; ++i) {
    auto cli = std::make_unique<NetClient>();
    cli->connect("127.0.0.1", server.port());  // HELLO'd on return
    if (i < 4) {
      OpenFrame f;
      f.token = 0x7A0 + static_cast<u64>(i);
      EXPECT_EQ(cli->open(f).ack, StatsAck::Open);
      cli->send_chunk(std::vector<i32>(256, 3));
    }
    clients.push_back(std::move(cli));
  }
  EXPECT_EQ(server.stats().connections_accepted, 32u);
  EXPECT_EQ(thread_count(), base);
}

TEST(NetServerThreads, AWaitingDrainDelaysNoOtherConnection) {
  // A DRAIN waiting out its timeout is a deadline on the loop, not a wait:
  // another connection streams a whole record and closes it meanwhile.
  const auto rec = ecg::nsrdb_like_digitized(1, 4000);
  const auto plan = ragged_plan(rec.adu.size(), 71);
  stream::StreamServer::Options so;
  so.queue_capacity_chunks = 4096;
  so.event_queue_capacity = 1 << 16;
  NetServer::Options no;
  no.stream = so;
  NetServer server(no);

  RawConn a(server.port());
  a.send_bytes(hello_open(0xAA, {}));
  EXPECT_EQ(a.stats().ack, StatsAck::Hello);
  EXPECT_EQ(a.stats().ack, StatsAck::Open);
  std::vector<u8> wire;
  encode_drain(wire, 2000);
  const auto t0 = std::chrono::steady_clock::now();
  a.send_bytes(wire);
  auto a_ack = std::async(std::launch::async, [&] {
    const StatsFrame st = a.stats();
    return std::make_pair(st, std::chrono::steady_clock::now());
  });

  const NetDrive b = drive_over_net(server, 0xBB, {}, rec.adu, plan);
  const auto b_done = std::chrono::steady_clock::now();
  EXPECT_EQ(b.final_stats.ack, StatsAck::Close);
  EXPECT_EQ(b.final_stats.chunks_processed, plan.size());

  const auto [drain_ack, a_done] = a_ack.get();
  EXPECT_EQ(drain_ack.ack, StatsAck::Drain);
  EXPECT_LT(b_done, a_done) << "B's CLOSE ack must not wait behind A's DRAIN";
  EXPECT_GE(a_done - t0, 1500ms) << "the DRAIN acked before its deadline with nothing to send";
}

TEST(NetServerThreads, ADropMidOperationStillSettlesTheToken) {
  // A connection that drops with a CLOSE or RESET in flight still completes
  // that operation's registry transition: the token's next OPEN gets Open
  // (the closed record) or Resumed (the warm park), never SessionBusy for
  // good.
  const auto rec = ecg::nsrdb_like_digitized(4, 6000);
  const auto plan = ragged_plan(rec.adu.size(), 81);
  stream::StreamServer::Options so;
  so.workers = 1;
  so.queue_capacity_chunks = 4096;
  so.event_queue_capacity = 1 << 16;
  NetServer::Options no;
  no.stream = so;
  NetServer server(no);

  for (const bool reset : {false, true}) {
    const u64 token = reset ? 0xD2 : 0xD1;
    {
      RawConn conn(server.port());
      conn.send_bytes(hello_open(token, {}));
      EXPECT_EQ(conn.stats().ack, StatsAck::Hello);
      EXPECT_EQ(conn.stats().ack, StatsAck::Open);
      std::vector<u8> wire;
      encode_chunks(wire, rec.adu, plan);
      if (reset) {
        encode_reset(wire, /*warm=*/true);
      } else {
        encode_close(wire);
      }
      conn.send_bytes(wire);
      conn.hang_up();  // before the ack
    }
    NetClient cli;
    cli.connect("127.0.0.1", server.port());
    OpenFrame f;
    f.token = token;
    const StatsFrame ack = cli.open(f, /*busy_retry_for=*/5s);
    EXPECT_EQ(ack.ack, reset ? StatsAck::Resumed : StatsAck::Open) << "reset=" << reset;
  }
  EXPECT_EQ(server.stats().sessions_resumed, 1u);
}

TEST(NetServerThreads, StopWhileConnectionsStreamIsClean) {
  // Destroying the server mid-stream must not let the stream layer's
  // completion hook touch a closed eventfd (the workers outlive the loop).
  const auto rec = ecg::nsrdb_like_digitized(0, 20000);
  for (int trial = 0; trial < 3; ++trial) {
    stream::StreamServer::Options so;
    so.workers = 2;
    so.queue_capacity_chunks = 64;
    so.event_queue_capacity = 4096;
    NetServer::Options no;
    no.stream = so;
    auto server = std::make_unique<NetServer>(no);
    const u16 port = server->port();
    std::atomic<int> ready{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        try {
          NetClient cli;
          cli.connect("127.0.0.1", port);
          OpenFrame f;
          f.token = 0x5700 + static_cast<u64>(c);
          (void)cli.open(f);
          ready.fetch_add(1);
          for (int round = 0; round < 1000; ++round) {
            for (std::size_t at = 0; at < rec.adu.size(); at += 64) {
              const std::size_t len = std::min<std::size_t>(64, rec.adu.size() - at);
              cli.send_chunk(std::span<const i32>(rec.adu).subspan(at, len));
            }
            std::vector<stream::Event> sink;
            (void)cli.take_events(sink);
          }
        } catch (const std::exception&) {
          // The server went away mid-stream: expected.
        }
      });
    }
    while (ready.load() < 4) std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + 10 * trial));
    server.reset();
    for (std::thread& t : clients) t.join();
  }
}

// ------------------------------------------------------- corruption fuzzing
//
// The shared fault-injection harness (tests/fault_inject.hpp, also used
// against the record store) drives the frame decoder with corrupted copies
// of a valid multi-frame stream. Frames carry no checksums, so a payload
// bit flip may legally decode — the properties under test are the decoder's
// survival guarantees, not detection:
//   - no crash, hang, or sanitizer report on any corrupted stream;
//   - a fatal framing error is sticky: once Error, always Error, no matter
//     what is fed afterwards (the stream is dead);
//   - whatever frames do come out decode through the typed payload decoders
//     without crashing (they may return Malformed — that's a valid outcome).

/// One valid wire stream exercising every frame type (seeded variation in
/// the chunk payload so different iterations corrupt different images).
std::vector<u8> valid_stream(u64 seed) {
  Rng rng(seed);
  std::vector<u8> wire;
  encode_hello(wire);
  OpenFrame open;
  open.token = rng.next_u64();
  open.lsbs = kB9Lsbs;
  encode_open(wire, open);
  std::vector<i32> samples(static_cast<std::size_t>(rng.uniform_int(1, 600)));
  for (i32& s : samples) s = static_cast<i32>(rng.uniform_int(-40000, 40000));
  encode_chunk(wire, samples);
  encode_drain(wire, 250);
  std::vector<stream::Event> evs(2);
  evs[0].time_s = 1.25;
  evs[0].hr_bpm = 71.0;
  evs[1].peak.decision = pantompkins::PeakDecision::TWave;
  encode_events(wire, evs);
  encode_stats(wire, StatsFrame{});
  encode_error(wire, WireError::Refused, "busy");
  encode_reset(wire, false);
  encode_close(wire);
  return wire;
}

/// Feed \p wire to \p dec in ragged slices, draining after every slice.
/// Returns the first fatal error (None if the stream decoded cleanly) and
/// runs every extracted frame through its typed payload decoder.
WireError pump(FrameDecoder& dec, const std::vector<u8>& wire, Rng& rng,
               std::size_t* frames_out = nullptr) {
  WireError fatal = WireError::None;
  std::size_t frames = 0;
  std::size_t at = 0;
  while (at < wire.size()) {
    const auto len =
        std::min<std::size_t>(static_cast<std::size_t>(rng.uniform_int(1, 97)),
                              wire.size() - at);
    dec.feed(std::span<const u8>(wire).subspan(at, len));
    at += len;
    FrameHeader h;
    std::vector<u8> p;
    WireError e = WireError::None;
    FrameDecoder::Next n;
    while ((n = dec.next(h, p, e)) == FrameDecoder::Next::Frame) {
      ++frames;
      // Typed decode of whatever came out: must not crash; Malformed is fine.
      HelloFrame hf;
      OpenFrame of;
      DrainFrame df;
      ResetFrame rf;
      StatsFrame sf;
      ErrorFrame ef;
      std::vector<stream::Event> evs;
      std::vector<i32> chunk;
      switch (h.type) {
        case FrameType::Hello: (void)decode_hello(p, hf); break;
        case FrameType::Open: (void)decode_open(p, of); break;
        case FrameType::Chunk: (void)decode_chunk(p, chunk); break;
        case FrameType::Drain: (void)decode_drain(p, df); break;
        case FrameType::Reset: (void)decode_reset(p, rf); break;
        case FrameType::Event: (void)decode_events(p, evs); break;
        case FrameType::Stats: (void)decode_stats(p, sf); break;
        case FrameType::Error: (void)decode_error(p, ef); break;
        default: break;
      }
    }
    if (n == FrameDecoder::Next::Error) {
      EXPECT_NE(e, WireError::None);
      fatal = e;
      break;
    }
  }
  if (frames_out != nullptr) *frames_out = frames;
  return fatal;
}

/// Once fatal, the decoder must stay fatal regardless of later input.
void expect_sticky_dead(FrameDecoder& dec, Rng& rng) {
  const std::vector<u8> more = valid_stream(rng.next_u64());
  dec.feed(more);
  FrameHeader h;
  std::vector<u8> p;
  WireError e = WireError::None;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(dec.next(h, p, e), FrameDecoder::Next::Error) << "decoder revived after fatal";
    EXPECT_NE(e, WireError::None);
  }
}

TEST(NetFuzz, BitFlippedStreamsNeverCrashAndFatalErrorsAreSticky) {
  std::size_t fatals = 0;
  for (u64 iter = 0; iter < 300; ++iter) {
    xbs::testing::FaultInjector inj(0xF1E1D000 + iter);
    std::vector<u8> wire = valid_stream(iter);
    const xbs::testing::Fault f = inj.flip_bit(wire);
    FrameDecoder dec;
    const WireError fatal = pump(dec, wire, inj.rng());
    if (fatal != WireError::None) {
      ++fatals;
      expect_sticky_dead(dec, inj.rng());
    }
    SCOPED_TRACE(f.describe());
  }
  // Header flips must be hitting the fatal path some of the time; payload
  // flips may legally decode, so not every iteration is fatal.
  EXPECT_GT(fatals, 0u);
}

TEST(NetFuzz, TruncatedAndTornStreamsNeverCrash) {
  for (u64 iter = 0; iter < 200; ++iter) {
    xbs::testing::FaultInjector inj(0xBADC0DE + iter);
    std::vector<u8> wire = valid_stream(iter);
    const std::vector<u8> stale = valid_stream(iter + 1000);
    if (iter % 2 == 0) {
      (void)inj.truncate(wire);
    } else {
      (void)inj.torn_write(wire, stale);
    }
    FrameDecoder dec;
    const WireError fatal = pump(dec, wire, inj.rng());
    if (fatal != WireError::None) expect_sticky_dead(dec, inj.rng());
    // A clean truncation mid-frame just leaves the decoder waiting for more
    // bytes — NeedMore forever is the correct, crash-free outcome.
  }
}

TEST(NetFuzz, HeaderMangledStreamsErrorOrResyncButNeverCrash) {
  std::size_t fatals = 0;
  for (u64 iter = 0; iter < 200; ++iter) {
    xbs::testing::FaultInjector inj(0x5EED + iter);
    std::vector<u8> wire = valid_stream(iter);
    // Mangle a byte inside the first frame header (12 bytes): magic, type,
    // flags, or length — the highest-leverage corruption for a framer.
    (void)inj.mangle_header(wire, 12);
    FrameDecoder dec;
    const WireError fatal = pump(dec, wire, inj.rng());
    if (fatal != WireError::None) {
      ++fatals;
      expect_sticky_dead(dec, inj.rng());
    }
  }
  // Nearly every header mangle is fatal (a length mangle that still parses
  // can shift framing instead); the fatal path must dominate.
  EXPECT_GT(fatals, 150u);
}

}  // namespace
}  // namespace xbs::net
