// wire_fleet: an open loop over the serving path. A NetServer runs in its
// own process on loopback; one generator thread drives 4 XBSP connections
// over non-blocking sockets with the public codec. Each connection cycles
// seeded 20,000-sample records through OPEN, 64-sample CHUNKs on a fixed
// schedule, then CLOSE; each record's configuration is exact or one of the
// paper's B1..B14. The aggregate rate is fixed at 1 M samples/s.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/net/protocol.hpp"
#include "xbs/net/server.hpp"

namespace pb {
namespace {

using namespace xbs;

constexpr int kConns = 4;
constexpr std::size_t kRecords = 16;
constexpr std::size_t kRecordSamples = 20000;
constexpr std::size_t kPlanLen = 30;  ///< plan entries per connection, cycled
constexpr std::size_t kChunk = 64;
constexpr std::size_t kChunks = (kRecordSamples + kChunk - 1) / kChunk;
/// Each connection starts a record every 80 ms: 4 x 20,000 samples per
/// 80 ms is 1 M samples/s. A record's chunks are due 128 us apart, so they
/// span 40 ms of the slot and leave room for the CLOSE ack (~20 ms, the
/// egress pump's drain timeout) and the next OPEN.
constexpr double kRecordPeriod = 0.080;
constexpr double kChunkInterval = 128e-6;
constexpr double kOpenLead = 0.005;  ///< OPEN is due this long before chunk 0
constexpr double kCloseGap = 0.002;  ///< CLOSE is due this long after the last chunk
constexpr double kIdleWindow = 1.0;
constexpr double kAckTimeout = 30.0;

// ------------------------------------------------------------------ inputs

struct Inputs {
  std::vector<std::vector<i32>> records;
  std::vector<std::pair<u32, u32>> pairs;  ///< (record, config) of each plan entry kind
  std::vector<std::vector<u32>> plan;      ///< per connection: pair ids, cycled
  std::vector<std::vector<EvRec>> refs;    ///< per pair: reference events
};

Inputs load_inputs(const std::string& dir) {
  Inputs in;
  BlobReader r(dir + "/wire_inputs.bin");
  const u64 n_rec = r.get<u64>();
  for (u64 i = 0; i < n_rec; ++i) in.records.push_back(r.get_vec<i32>());
  const u64 n_pairs = r.get<u64>();
  for (u64 i = 0; i < n_pairs; ++i) {
    const u32 rec = r.get<u32>();
    const u32 cfg = r.get<u32>();
    in.pairs.emplace_back(rec, cfg);
  }
  const u64 n_conns = r.get<u64>();
  for (u64 c = 0; c < n_conns; ++c) in.plan.push_back(r.get_vec<u32>());
  BlobReader f(dir + "/wire_reference.bin");
  const u64 n_refs = f.get<u64>();
  for (u64 i = 0; i < n_refs; ++i) in.refs.push_back(f.get_vec<EvRec>());
  if (in.plan.size() != kConns || in.refs.size() != in.pairs.size()) {
    throw std::runtime_error("wire_fleet: inconsistent input files");
  }
  return in;
}

net::OpenFrame open_frame(const pantompkins::LsbVector& lsbs, u64 token) {
  net::OpenFrame f;
  f.token = token;
  std::copy(lsbs.begin(), lsbs.end(), f.lsbs.begin());
  return f;
}

u64 tables_total(const arith::TableCacheStats& s) {
  return s.multiplier_models + s.magnitude_tables + s.signed_tables + s.square_tables;
}

// ----------------------------------------------------------- server process

/// What the server process reports when asked: its own CPU, memory, thread
/// and table counters, and the NetServer / StreamServer statistics.
struct ServerSnap {
  double wall_s = 0;
  double cpu_s = 0;
  double rss_peak_mib = 0;
  u64 tables_built = 0;
  u64 threads_peak = 0;
  u64 events_shed = 0;
  u64 protocol_errors = 0;
  u64 sessions_evicted = 0;
  u64 bytes_in = 0;
  u64 bytes_out = 0;
  u64 peak_queued_chunks = 0;
  u64 rejected_chunks = 0;
  u64 dropped_chunks = 0;
  u64 faulted = 0;
};

bool read_full(int fd, void* p, std::size_t n) {
  auto* b = static_cast<u8*>(p);
  while (n > 0) {
    const ssize_t r = ::read(fd, b, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    b += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_full(int fd, const void* p, std::size_t n) {
  const auto* b = static_cast<const u8*>(p);
  while (n > 0) {
    const ssize_t r = ::write(fd, b, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    b += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// The server process: waits for 'S', serves, answers 'M' with a snapshot
/// and 'Q' with a final snapshot after stopping. Never returns.
[[noreturn]] void server_main(int listen_fd, int ctl_in, int snap_out) {
  pin_to_cpus(1, -1);
  char cmd = 0;
  if (!read_full(ctl_in, &cmd, 1) || cmd != 'S') ::_exit(1);
  const u64 tables_base = tables_total(arith::table_cache_stats());
  net::NetServer::Options no;
  no.listen_fd = listen_fd;
  no.stream.max_sessions = 8;  // below the records in flight plus kept ones: LRU eviction runs
  no.stream.queue_capacity_chunks = 512;  // a whole record: a stalled worker delays, never refuses
  no.stream.workers = 2;
  no.stream.shards = 2;
  no.stream.event_queue_capacity = 4096;
  auto server = std::make_unique<net::NetServer>(no);
  u64 threads_peak = static_cast<u64>(threads_now());
  auto snap = [&] {
    ServerSnap s;
    s.wall_s = now_s();
    s.cpu_s = cpu_s();
    s.rss_peak_mib = peak_rss_mib();
    s.tables_built = tables_total(arith::table_cache_stats()) - tables_base;
    s.threads_peak = threads_peak;
    const auto ns = server->stats();
    s.events_shed = ns.events_shed;
    s.protocol_errors = ns.protocol_errors;
    s.sessions_evicted = ns.sessions_evicted;
    s.bytes_in = ns.bytes_in;
    s.bytes_out = ns.bytes_out;
    const auto ss = server->stream().stats();
    s.peak_queued_chunks = ss.peak_queued_chunks;
    s.rejected_chunks = ss.rejected_chunks;
    s.dropped_chunks = ss.dropped_chunks;
    s.faulted = ss.faulted;
    return s;
  };
  while (true) {
    pollfd p{ctl_in, POLLIN, 0};
    const int r = ::poll(&p, 1, 20);
    threads_peak = std::max(threads_peak, static_cast<u64>(threads_now()));
    if (r == 0 || (r < 0 && errno == EINTR)) continue;
    if (r < 0 || !read_full(ctl_in, &cmd, 1)) break;
    if (cmd == 'Q') server->stop();
    const ServerSnap s = snap();
    if (!write_full(snap_out, &s, sizeof s) || cmd == 'Q') break;
  }
  server->stop();
  ::_exit(0);
}

class ServerProc {
 public:
  /// Binds the loopback listener and forks the server process, which waits
  /// for start(). Must run while this process has no other threads.
  ServerProc() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    if (listen_fd_ < 0 || ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 64) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw std::runtime_error("wire_fleet: cannot bind a loopback listener");
    }
    port_ = ntohs(addr.sin_port);
    int ctl[2];
    int snap[2];
    if (::pipe2(ctl, O_CLOEXEC) != 0 || ::pipe2(snap, O_CLOEXEC) != 0) {
      throw std::runtime_error("wire_fleet: pipe failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("wire_fleet: fork failed");
    if (pid_ == 0) {
      ::close(ctl[1]);
      ::close(snap[0]);
      server_main(listen_fd_, ctl[0], snap[1]);
    }
    ::close(ctl[0]);
    ::close(snap[1]);
    ::close(listen_fd_);  // the server process owns it now
    ctl_ = ctl[1];
    snap_ = snap[0];
  }
  ~ServerProc() {
    ::close(ctl_);  // EOF stops a server still running
    if (pid_ > 0) {
      int status = 0;
      (void)::waitpid(pid_, &status, 0);
    }
    ::close(snap_);
  }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  [[nodiscard]] u16 port() const noexcept { return port_; }
  void start() { send('S'); }
  ServerSnap mark() { return ask('M'); }
  /// Stop the server, collect its final snapshot and reap the process.
  ServerSnap quit() {
    const ServerSnap s = ask('Q');
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (r < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("wire_fleet: server process failed");
    }
    return s;
  }

 private:
  void send(char c) {
    if (!write_full(ctl_, &c, 1)) throw std::runtime_error("wire_fleet: server process gone");
  }
  ServerSnap ask(char c) {
    send(c);
    ServerSnap s;
    if (!read_full(snap_, &s, sizeof s)) throw std::runtime_error("wire_fleet: no snapshot");
    return s;
  }

  int listen_fd_ = -1;
  u16 port_ = 0;
  pid_t pid_ = -1;
  int ctl_ = -1;
  int snap_ = -1;
};

// ---------------------------------------------------------------- generator

struct Conn {
  int fd = -1;
  int index = 0;
  net::FrameDecoder dec;
  std::vector<u8> out;  ///< bytes the socket did not take yet
  std::size_t out_off = 0;

  bool have_ack = false;  ///< a STATS frame arrived since the last request
  net::StatsFrame ack{};
  double t_ack = 0;

  enum class St { Idle, Opening, Streaming, Closing, Done } st = St::Idle;
  u64 rec_no = 0;       ///< record instances started on this connection
  u32 pair = 0;         ///< the current record's (record, config) pair
  bool active = false;  ///< events belong to the current record
  double start_due = 0; ///< due time of chunk 0
  std::size_t next_chunk = 0;
  std::size_t ev_seen = 0;
  u64 ev_bad = 0;
  double t_open = 0;
  double t_close = 0;
  i32 span_record = -1;
};

class Generator {
 public:
  Generator(const Inputs& in, u16 port, Report& rep) : in_(in), rep_(rep) {
    for (int c = 0; c < kConns; ++c) {
      Conn& k = conns_[static_cast<std::size_t>(c)];
      k.index = c;
      k.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      const int one = 1;
      (void)::setsockopt(k.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (k.fd < 0 || ::connect(k.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error("wire_fleet: connect failed");
      }
      (void)::fcntl(k.fd, F_SETFL, ::fcntl(k.fd, F_GETFL) | O_NONBLOCK);
    }
  }
  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // -- control phases (set-up, idle window): request on each conn, await acks

  void hello_all() {
    for (Conn& c : conns_) {
      frame_.clear();
      net::encode_hello(frame_);
      request(c);
    }
    await_acks(net::StatsAck::Hello, kConns);
  }

  /// Cold OPENs: every configuration's first OPEN (and its CLOSE), spread
  /// round-robin over the connections. Returns each OPEN's latency.
  std::vector<double> cold_opens(const std::vector<pantompkins::LsbVector>& cfgs) {
    std::vector<double> lat;
    for (std::size_t base = 0; base < cfgs.size(); base += kConns) {
      const int n = static_cast<int>(std::min<std::size_t>(kConns, cfgs.size() - base));
      for (int c = 0; c < n; ++c) {
        frame_.clear();
        net::encode_open(frame_, open_frame(cfgs[base + static_cast<std::size_t>(c)],
                                            next_token_++));
        request(conns_[static_cast<std::size_t>(c)]);
      }
      for (const double t : await_acks(net::StatsAck::Open, n)) lat.push_back(t);
      close_first(n);
    }
    return lat;
  }

  void open_first(int n, const pantompkins::LsbVector& lsbs) {
    for (int c = 0; c < n; ++c) {
      frame_.clear();
      net::encode_open(frame_, open_frame(lsbs, next_token_++));
      request(conns_[static_cast<std::size_t>(c)]);
    }
    (void)await_acks(net::StatsAck::Open, n);
  }

  void close_first(int n) {
    for (int c = 0; c < n; ++c) {
      frame_.clear();
      net::encode_close(frame_);
      request(conns_[static_cast<std::size_t>(c)]);
    }
    (void)await_acks(net::StatsAck::Close, n);
  }

  // -- the open loop

  struct PassResult {
    double t0 = 0;
    double t_last = 0;
    u64 records = 0;
    u64 samples_ok = 0;
    u64 chunks = 0;
    u64 events_expected = 0;
    u64 events = 0;
    u64 event_frames = 0;
    std::vector<double> ev_lat;
    std::vector<double> open_lat;
    std::vector<double> close_lat;
    std::vector<double> late;
  };

  PassResult open_loop(double seconds) {
    PassResult p;
    pass_ = &p;
    p.t0 = now_s() + 0.010;
    const double t_end = p.t0 + seconds;
    for (Conn& c : conns_) {
      c.st = Conn::St::Idle;
      c.rec_no = 0;
    }
    while (true) {
      const double now = now_s();
      double next = std::numeric_limits<double>::infinity();
      bool done = true;
      for (Conn& c : conns_) {
        if (c.st == Conn::St::Done) continue;
        done = false;
        step(c, now, t_end, next);
      }
      if (done) break;
      poll_io(next - now_s());
    }
    pass_ = nullptr;
    return p;
  }

  [[nodiscard]] u64 protocol_failures() const noexcept { return errors_; }
  /// Record spans of the following passes into \p log.
  void trace_into(SpanLog& log) { log_ = &log; }

 private:
  /// Due time of chunk \p k; k == kChunks is the CLOSE.
  [[nodiscard]] double chunk_due(const Conn& c, std::size_t k) const {
    const double t = c.start_due + static_cast<double>(std::min(k, kChunks - 1)) * kChunkInterval;
    return k < kChunks ? t : t + kCloseGap;
  }

  void step(Conn& c, double now, double t_end, double& next) {
    PassResult& p = *pass_;
    const u64 req_base = (static_cast<u64>(c.index) << 56) | (c.rec_no << 16);
    switch (c.st) {
      case Conn::St::Idle: {
        const double start = p.t0 + c.index * (kRecordPeriod / kConns) +
                             static_cast<double>(c.rec_no) * kRecordPeriod;
        if (start - kOpenLead >= t_end) {
          c.st = Conn::St::Done;
          return;
        }
        if (now < start - kOpenLead) {
          next = std::min(next, start - kOpenLead);
          return;
        }
        const auto& plan = in_.plan[static_cast<std::size_t>(c.index)];
        c.pair = plan[c.rec_no % plan.size()];
        c.start_due = start;
        frame_.clear();
        net::encode_open(frame_, open_frame(lsbs_[in_.pairs[c.pair].second], next_token_++));
        c.t_open = now_s();
        c.span_record = log_->add("wire.record", c.t_open, 0, -1, req_base);
        request(c);
        c.st = Conn::St::Opening;
        next = now;  // keep polling for the ack
        return;
      }
      case Conn::St::Opening:
        if (!c.have_ack) return;
        if (c.ack.ack != net::StatsAck::Open) {
          rep_.fail(1, "OPEN answered with a non-OPEN ack");
        }
        p.open_lat.push_back(c.t_ack - c.t_open);
        (void)log_->add("wire.open", c.t_open, c.t_ack, c.span_record, req_base);
        c.st = Conn::St::Streaming;
        c.active = true;
        c.next_chunk = 0;
        c.ev_seen = 0;
        c.ev_bad = 0;
        [[fallthrough]];
      case Conn::St::Streaming: {
        const auto& adu = in_.records[in_.pairs[c.pair].first];
        while (c.next_chunk < kChunks && chunk_due(c, c.next_chunk) <= now) {
          const std::size_t at = c.next_chunk * kChunk;
          frame_.clear();
          net::encode_chunk(frame_, std::span<const i32>(adu).subspan(
                                        at, std::min(kChunk, adu.size() - at)));
          const double t_send = now_s();
          send(c);
          p.late.push_back(t_send - chunk_due(c, c.next_chunk));
          if (log_->on()) {
            (void)log_->add("wire.chunk_send", t_send, now_s(), c.span_record,
                           req_base | c.next_chunk);
          }
          ++p.chunks;
          ++c.next_chunk;
        }
        if (c.next_chunk < kChunks || now < chunk_due(c, kChunks)) {
          next = std::min(next, chunk_due(c, c.next_chunk));
          return;
        }
        frame_.clear();
        net::encode_close(frame_);
        c.t_close = now_s();
        request(c);
        c.st = Conn::St::Closing;
        return;
      }
      case Conn::St::Closing: {
        if (!c.have_ack) return;
        const auto& ref = in_.refs[c.pair];
        p.close_lat.push_back(c.t_ack - c.t_close);
        (void)log_->add("wire.close", c.t_close, c.t_ack, c.span_record, req_base);
        log_->finish(c.span_record, c.t_ack);
        p.t_last = std::max(p.t_last, c.t_ack);
        p.events_expected += ref.size();
        const net::StatsFrame& st = c.ack;
        u64 bad = c.ev_bad + (c.ev_seen < ref.size() ? ref.size() - c.ev_seen : 0);
        rep_.fail(bad, "events differing from the reference or missing");
        rep_.fail(st.rejected_chunks + st.dropped_chunks, "rejected or dropped chunks");
        const bool clean = c.ack.ack == net::StatsAck::Close && bad == 0 &&
                           st.samples == kRecordSamples && st.chunks_processed == kChunks &&
                           st.session_state != static_cast<u8>(stream::SessionState::Faulted);
        if (!clean && bad == 0) rep_.fail(1, "a record closed unclean or faulted");
        if (clean) p.samples_ok += kRecordSamples;
        ++p.records;
        c.active = false;
        ++c.rec_no;
        c.st = Conn::St::Idle;
        next = now;
        return;
      }
      case Conn::St::Done:
        return;
    }
  }

  void request(Conn& c) {
    c.have_ack = false;
    send(c);
  }

  void send(Conn& c) {
    if (c.out_off < c.out.size()) {
      c.out.insert(c.out.end(), frame_.begin(), frame_.end());
      return;
    }
    c.out.clear();
    c.out_off = 0;
    ssize_t n = ::send(c.fd, frame_.data(), frame_.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw std::runtime_error("wire_fleet: send failed");
      }
      n = 0;
    }
    c.out.insert(c.out.end(), frame_.begin() + n, frame_.end());
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        throw std::runtime_error("wire_fleet: send failed");
      }
      c.out_off += static_cast<std::size_t>(n);
    }
  }

  /// Wait for socket activity for at most \p timeout_s (nanosecond timeout),
  /// stamping receipt when the bytes arrive.
  void poll_io(double timeout_s) {
    std::array<pollfd, kConns> pfd{};
    for (int c = 0; c < kConns; ++c) {
      const Conn& k = conns_[static_cast<std::size_t>(c)];
      pfd[static_cast<std::size_t>(c)] = pollfd{
          k.fd, static_cast<short>(POLLIN | (k.out_off < k.out.size() ? POLLOUT : 0)), 0};
    }
    timeout_s = std::clamp(timeout_s, 0.0, 0.05);
    timespec ts{};
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(timeout_s * 1e9);
    const int r = ::ppoll(pfd.data(), pfd.size(), &ts, nullptr);
    if (r < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error("wire_fleet: ppoll failed");
    }
    for (int c = 0; c < kConns && r > 0; ++c) {
      Conn& k = conns_[static_cast<std::size_t>(c)];
      const short ev = pfd[static_cast<std::size_t>(c)].revents;
      if ((ev & POLLOUT) != 0) flush(k);
      if ((ev & (POLLIN | POLLERR | POLLHUP)) != 0) receive(k);
    }
  }

  void receive(Conn& c) {
    u8 buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        const double t = now_s();
        c.dec.feed(std::span<const u8>(buf, static_cast<std::size_t>(n)));
        net::FrameHeader h;
        net::WireError err = net::WireError::None;
        while (true) {
          const auto nx = c.dec.next(h, payload_, err);
          if (nx == net::FrameDecoder::Next::NeedMore) break;
          if (nx == net::FrameDecoder::Next::Error) {
            throw std::runtime_error(std::string("wire_fleet: framing error: ") +
                                     net::to_string(err));
          }
          on_frame(c, h, t);
        }
        continue;
      }
      if (n == 0) throw std::runtime_error("wire_fleet: server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error("wire_fleet: recv failed");
    }
  }

  void on_frame(Conn& c, const net::FrameHeader& h, double t) {
    switch (h.type) {
      case net::FrameType::Event: {
        evs_.clear();
        if (net::decode_events(payload_, evs_) != net::WireError::None) {
          ++errors_;
          rep_.fail(1, "undecodable EVENT frame");
          return;
        }
        if (pass_ != nullptr) {
          ++pass_->event_frames;
          pass_->events += evs_.size();
        }
        const std::vector<EvRec>* ref = c.active ? &in_.refs[c.pair] : nullptr;
        for (const stream::Event& e : evs_) {
          if (ref == nullptr || c.ev_seen >= ref->size()) {
            ++c.ev_bad;
            if (ref == nullptr) rep_.fail(1, "an event outside any streamed record");
            continue;
          }
          const EvRec& want = (*ref)[c.ev_seen++];
          if (!same_event(to_rec(e, 0), want)) {
            ++c.ev_bad;
            continue;
          }
          // Latency from the due time of the chunk whose push emitted the
          // event in the reference run (the CLOSE's for flush-tail events).
          if (pass_ != nullptr) pass_->ev_lat.push_back(t - chunk_due(c, want.chunk));
        }
        return;
      }
      case net::FrameType::Stats:
        if (net::decode_stats(payload_, c.ack) != net::WireError::None) {
          ++errors_;
          rep_.fail(1, "undecodable STATS frame");
          return;
        }
        c.have_ack = true;
        c.t_ack = t;
        return;
      case net::FrameType::Error: {
        net::ErrorFrame e;
        (void)net::decode_error(payload_, e);
        ++errors_;
        throw std::runtime_error(std::string("wire_fleet: ERROR frame: ") +
                                 net::to_string(e.code) + " " + e.message);
      }
      default:
        ++errors_;
        rep_.fail(1, "unexpected frame type");
        return;
    }
  }

  std::vector<double> await_acks(net::StatsAck want, int n) {
    const double deadline = now_s() + kAckTimeout;
    std::vector<double> lat(static_cast<std::size_t>(n), 0.0);
    std::vector<double> t_sent(static_cast<std::size_t>(n), now_s());
    while (true) {
      bool all = true;
      for (int c = 0; c < n; ++c) {
        const Conn& k = conns_[static_cast<std::size_t>(c)];
        if (!k.have_ack) all = false;
      }
      if (all) break;
      if (now_s() > deadline) throw std::runtime_error("wire_fleet: ack timeout");
      poll_io(0.05);
    }
    for (int c = 0; c < n; ++c) {
      const Conn& k = conns_[static_cast<std::size_t>(c)];
      if (k.ack.ack != want) rep_.fail(1, "control request answered with the wrong ack");
      lat[static_cast<std::size_t>(c)] = k.t_ack - t_sent[static_cast<std::size_t>(c)];
    }
    return lat;
  }

  const Inputs& in_;
  Report& rep_;
  SpanLog untraced_{false};
  SpanLog* log_ = &untraced_;
  std::array<Conn, kConns> conns_;
  const std::vector<pantompkins::LsbVector> lsbs_ = paper_serving_lsbs();
  PassResult* pass_ = nullptr;
  std::vector<u8> frame_;
  std::vector<u8> payload_;
  std::vector<stream::Event> evs_;
  u64 next_token_ = 1;
  u64 errors_ = 0;
};

}  // namespace

// ----------------------------------------------------------------- gen/run

void gen_wire_fleet(const GenArgs& a) {
  const auto lsbs = paper_serving_lsbs();
  std::vector<std::vector<i32>> recs;
  for (std::size_t i = 0; i < kRecords; ++i) {
    recs.push_back(seeded_record(mix_seed(a.seed, 100 + i), kRecordSamples).adu);
  }
  // Each connection walks the configurations in its own seeded order and
  // draws a seeded record for each plan entry.
  std::map<std::pair<u32, u32>, u32> ids;
  std::vector<std::pair<u32, u32>> pairs;
  std::vector<std::vector<u32>> plan(kConns);
  for (int c = 0; c < kConns; ++c) {
    Rng rng(mix_seed(a.seed, 200 + static_cast<u64>(c)));
    std::vector<u32> order(lsbs.size());
    for (u32 i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<i64>(i)))]);
    }
    for (std::size_t j = 0; j < kPlanLen; ++j) {
      const auto key = std::make_pair(
          static_cast<u32>(rng.uniform_int(0, static_cast<i64>(kRecords) - 1)),
          order[j % order.size()]);
      const auto [it, fresh] = ids.emplace(key, static_cast<u32>(pairs.size()));
      if (fresh) pairs.push_back(key);
      plan[static_cast<std::size_t>(c)].push_back(it->second);
    }
  }
  BlobWriter in;
  in.put<u64>(recs.size());
  for (const auto& r : recs) in.put_vec<i32>(r);
  in.put<u64>(pairs.size());
  for (const auto& [rec, cfg] : pairs) {
    in.put<u32>(rec);
    in.put<u32>(cfg);
  }
  in.put<u64>(plan.size());
  for (const auto& p : plan) in.put_vec<u32>(p);
  in.save(a.dir + "/wire_inputs.bin");

  BlobWriter ref;
  ref.put<u64>(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto cfg = open_frame(lsbs[pairs[i].second], 0).config();
    std::vector<EvRec> evs = reference_events(cfg, recs[pairs[i].first], kChunk);
    if (a.corrupt && i == static_cast<std::size_t>(plan[0][0]) && !evs.empty()) {
      evs[evs.size() / 2].raw_index += 1;  // self-test: one wrong reference event
    }
    ref.put_vec<EvRec>(evs);
  }
  ref.save(a.dir + "/wire_reference.bin");
}

void run_wire_fleet(const RunArgs& a, Report& rep) {
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // ns-accurate ppoll wake-ups
  ServerProc server;  // forked first: the server inherits no inputs and no threads
  pin_to_cpus(0, 0);
  const Inputs in = load_inputs(a.dir);
  const auto lsbs = paper_serving_lsbs();
  SpanLog log(a.trace);

  // Set-up: server construction and thread start, connections, HELLO, and
  // one cold OPEN per configuration (its table compile runs on the loop).
  const double t0 = now_s();
  server.start();
  Generator gen(in, server.port(), rep);
  gen.hello_all();
  const double t_cold = now_s();
  const std::vector<double> cold = gen.cold_opens(lsbs);
  const double cold_s = now_s() - t_cold;
  const ServerSnap s_setup = server.mark();
  const double setup_s = now_s() - t0;
  rep.set("setup_s", setup_s, "s");
  if (a.setup_only) {
    (void)server.quit();
    return;
  }

  const auto pass_metrics = [&](const Generator::PassResult& p, const ServerSnap& s0,
                                const ServerSnap& s1) {
    const double wall = p.t_last - p.t0;
    const double msamples = static_cast<double>(p.samples_ok) / 1e6;
    return std::array<double, 5>{
        static_cast<double>(p.samples_ok) / wall, (s1.cpu_s - s0.cpu_s) / msamples,
        percentile(p.ev_lat, 0.5) * 1e3, percentile(p.ev_lat, 0.999) * 1e3,
        percentile(p.close_lat, 0.5) * 1e3};
  };

  const ServerSnap s0 = server.mark();
  const Generator::PassResult p = gen.open_loop(a.seconds);
  const ServerSnap s1 = server.mark();
  const auto m = pass_metrics(p, s0, s1);

  rep.attempted += p.chunks + p.events_expected + 2 * p.records;
  rep.fail(s1.events_shed, "events shed by the server");
  rep.fail(s1.protocol_errors + gen.protocol_failures(), "protocol errors");
  rep.fail(s1.faulted, "faulted sessions");
  if (p.records == 0) rep.fail(1, "no record completed");
  char line[256];
  std::snprintf(line, sizeof line,
                "wire_fleet: %llu records, %llu chunks, %llu events in %llu frames, "
                "%zu latency samples (p99.9 has %zu beyond)",
                static_cast<unsigned long long>(p.records),
                static_cast<unsigned long long>(p.chunks),
                static_cast<unsigned long long>(p.events),
                static_cast<unsigned long long>(p.event_frames), p.ev_lat.size(),
                p.ev_lat.size() / 1000);
  rep.note(line);
  std::snprintf(line, sizeof line,
                "event_p50_ms %.4f, event_p999_ms %.4f, close_p50_ms %.4f; server CPU %.2f "
                "cores; generator lateness p50 %.4f ms, p99 %.4f ms, max %.4f ms",
                m[2], m[3], m[4], (s1.cpu_s - s0.cpu_s) / (s1.wall_s - s0.wall_s),
                percentile(p.late, 0.5) * 1e3, percentile(p.late, 0.99) * 1e3,
                percentile(p.late, 1.0) * 1e3);
  rep.note(line);

  if (!a.trace) {
    const ServerSnap fin = server.quit();
    rep.set("samples_per_s", m[0], "1/s");
    rep.set("cpu_s_per_msample", m[1], "s");
    rep.set("event_p50_ms", m[2], "ms");
    rep.set("close_p50_ms", m[4], "ms");
    rep.set("peak_rss_mib", fin.rss_peak_mib, "MiB");
    return;
  }

  // Traced run: the same open loop again with spans on, then an idle window
  // with 4 attached sessions, then the in-process ladder.
  gen.trace_into(log);
  const ServerSnap st0 = server.mark();
  const Generator::PassResult pt = gen.open_loop(a.seconds);
  const ServerSnap st1 = server.mark();
  gen.open_first(kConns, lsbs[0]);
  const ServerSnap i0 = server.mark();
  std::this_thread::sleep_for(std::chrono::duration<double>(kIdleWindow));
  const ServerSnap i1 = server.mark();
  gen.close_first(kConns);
  rep.set("net.idle_cpu_pct", (i1.cpu_s - i0.cpu_s) / (i1.wall_s - i0.wall_s) * 100.0, "%");
  const ServerSnap fin = server.quit();
  const auto mt = pass_metrics(pt, st0, st1);
  rep.attempted += pt.chunks + pt.events_expected + 2 * pt.records;

  rep.set("arith.warm_s", cold_s, "s");
  rep.set("arith.tables_built", static_cast<double>(s_setup.tables_built), "count");
  rep.set("arith.tables_built_timed",
          static_cast<double>(fin.tables_built - s_setup.tables_built), "count");
  rep.set("net.open_cold_ms_max", percentile(cold, 1.0) * 1e3, "ms");
  std::vector<double> opens = p.open_lat;
  opens.insert(opens.end(), pt.open_lat.begin(), pt.open_lat.end());
  rep.set("net.open_ms_p50", percentile(opens, 0.5) * 1e3, "ms");
  rep.set("net.threads", static_cast<double>(fin.threads_peak), "count");
  rep.set("net.events_per_frame",
          static_cast<double>(pt.events) / static_cast<double>(std::max<u64>(1, pt.event_frames)),
          "1");
  rep.set("net.events_shed", static_cast<double>(fin.events_shed), "count");
  rep.set("net.protocol_errors", static_cast<double>(fin.protocol_errors), "count");
  rep.set("net.sessions_evicted", static_cast<double>(fin.sessions_evicted), "count");
  rep.set("net.bytes_in", static_cast<double>(fin.bytes_in), "bytes");
  rep.set("net.bytes_out", static_cast<double>(fin.bytes_out), "bytes");
  rep.set("stream.peak_queued_chunks", static_cast<double>(fin.peak_queued_chunks), "count");
  rep.set("stream.rejected_chunks", static_cast<double>(fin.rejected_chunks), "count");
  rep.set("stream.dropped_chunks", static_cast<double>(fin.dropped_chunks), "count");
  rep.set("stream.faulted", static_cast<double>(fin.faulted), "count");
  rep.set("tail.event_p999_ms", mt[3], "ms");
  rep.set("gen.late_ms_p99", percentile(pt.late, 0.99) * 1e3, "ms");
  rep.set("gen.late_ms_max", percentile(pt.late, 1.0) * 1e3, "ms");
  rep.set("trace.overhead_pct", (mt[2] - m[2]) / m[2] * 100.0, "%");

  // The ladder over one cycle of every connection's plan: the same records,
  // configurations and chunk size.
  std::vector<LadderInput> ladder_in;
  for (const auto& plan : in.plan) {
    for (const u32 id : plan) {
      const auto& [rec, cfg] = in.pairs[id];
      ladder_in.push_back(LadderInput{open_frame(lsbs[cfg], 0).config(), in.records[rec]});
    }
  }
  const LadderRungs l = measure_ladder(ladder_in, kChunk);
  report_ladder_layers(l, rep);
  const double per_sample = 1e9 / static_cast<double>(l.samples);
  const double rung4_ns = mt[1] * 1e3;  // the traced pass's server CPU, ns/sample
  const double e2e_ns = m[1] * 1e3;
  rep.set("net.wire_ns_per_chunk", (rung4_ns - l.server_s * per_sample) * kChunk, "ns");
  rep.set("ladder.unattributed_pct", (e2e_ns - rung4_ns) / e2e_ns * 100.0, "%");
  std::snprintf(line, sizeof line,
                "ladder ns/sample: stages+detector %.1f | Session %.1f | StreamServer 1P1W %.1f | "
                "XBSP loopback %.1f | untraced cpu_s_per_msample %.1f",
                l.rung1_s() * per_sample, l.session_s * per_sample, l.server_s * per_sample,
                rung4_ns, e2e_ns);
  rep.note(line);
  write_spans(log, a.dir + "/spans.tsv", rep);
}

}  // namespace pb
