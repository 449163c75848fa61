#include "xbs/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace xbs::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Control (non-CHUNK) payloads are all tiny fixed layouts; anything bigger
/// than this is hostile even when it fits the frame bound.
constexpr std::size_t kMaxControlPayload = 4096;
/// Events per EVENT frame, so one drain burst never overflows the peer's
/// frame bound (1024 * 72B + 8B header comfortably under 1 MiB).
constexpr std::size_t kMaxEventsPerFrame = 1024;
/// Upper bound the server enforces on DRAIN waits, so a hostile timeout
/// cannot hold a connection's replies for minutes.
constexpr u32 kMaxDrainTimeoutMs = 5000;
/// epoll keys of the listener and the eventfd; connections count up from 2.
constexpr u64 kListenKey = 0;
constexpr u64 kWakeKey = 1;

stream::StreamServer::Options with_notify(stream::StreamServer::Options so,
                                          std::function<void(stream::SessionId)> notify) {
  so.notify = std::move(notify);  // the egress path: the front door owns the hook
  return so;
}

/// A state in which the session can land nothing more.
bool terminal(stream::SessionState st) {
  return st == stream::SessionState::Closed || st == stream::SessionState::Faulted ||
         st == stream::SessionState::Empty;
}

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) (void)::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

}  // namespace

struct NetServer::StatsAtomics {
  std::atomic<u64> accepted{0};
  std::atomic<u64> closed{0};
  std::atomic<u64> protocol_errors{0};
  std::atomic<u64> opened{0};
  std::atomic<u64> resumed{0};
  std::atomic<u64> parked{0};
  std::atomic<u64> evicted{0};
  std::atomic<u64> events_sent{0};
  std::atomic<u64> events_shed{0};
  std::atomic<u64> bytes_in{0};
  std::atomic<u64> bytes_out{0};
};

/// One client connection. Event-loop thread only.
struct NetServer::Conn {
  u64 key = 0;  ///< epoll key
  int fd = -1;

  // Receive state machine.
  enum class Rx { Header, Payload, Chunk, Discard };
  Rx rx = Rx::Header;
  std::array<u8, kHeaderBytes> hdr_raw{};
  std::size_t hdr_fill = 0;
  FrameHeader hdr{};
  std::vector<u8> payload;
  std::size_t fill = 0;
  std::size_t discard_left = 0;
  std::size_t chunk_samples = 0;
  stream::ChunkLoan loan;  ///< armed while a CHUNK payload lands in place
  bool hello_done = false;
  bool has_session = false;  ///< CHUNK/DRAIN/RESET address `sid`
  u64 token = 0;
  stream::SessionId sid{};  ///< the session served (still set while its CLOSE lands)
  bool stalled = false;     ///< session at its high-water mark: reading paused
  bool held = false;        ///< a control frame waits for `op`: reading paused
  bool dead = false;        ///< socket shut; kept only until `op` lands
  bool epoll_in = true;
  bool epoll_out = false;
  bool timed = false;  ///< listed in timed_
  bool dirty = false;  ///< listed in dirty_

  // The one control operation in flight.
  enum class Op { None, Drain, Close, Reset, Park };
  Op op = Op::None;
  u64 op_resets = 0;             ///< Reset/Park: SessionStats::resets before the start
  Clock::time_point deadline{};  ///< Drain: when it acks without an event

  std::vector<u8> out;  ///< egress bytes not yet taken by the socket
  std::size_t out_off = 0;

  // Per-connection counters (surfaced in STATS frames).
  u64 events_sent = 0;
  u64 events_shed = 0;
  u64 bytes_in = 0;
  u64 bytes_out = 0;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

// ------------------------------------------------------------- construction

NetServer::NetServer(Options opts)
    : opts_(std::move(opts)),
      stream_(with_notify(opts_.stream, [n = &notify_](stream::SessionId id) { n->post(id); })) {
  stats_ = std::make_unique<StatsAtomics>();
  auto fail = [&](const char* what) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    throw std::runtime_error(std::string("NetServer: ") + what + ": " +
                             std::strerror(errno));
  };
  if (opts_.listen_fd >= 0) {
    listen_fd_ = opts_.listen_fd;  // adopted: the bench binds before forking
    set_nonblocking(listen_fd_);
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) fail("socket");
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
      errno = EINVAL;
      fail("bind address");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      fail("bind");
    }
    if (::listen(listen_fd_, 64) != 0) fail("listen");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) fail("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) fail("epoll add");
  ev.data.u64 = kWakeKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) fail("epoll add");
  {
    const common::MutexLock lock(notify_.mu);
    notify_.fd = wake_fd_;  // armed: completions now reach the loop
  }

  loop_thread_ = std::thread([this] { loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  // Owner-thread lifecycle call (the destructor path); not for concurrent use.
  if (!stop_.exchange(true)) wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The stream workers outlive this call (they stop with stream_) and may
  // still fire the hook: disarm it before the eventfd closes, so the hook
  // never writes to a closed — or recycled — descriptor.
  {
    const common::MutexLock lock(notify_.mu);
    notify_.fd = -1;
    notify_.ids.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void NetServer::wake_loop() {
  const u64 one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void NetServer::Notify::post(stream::SessionId id) {
  const common::MutexLock lock(mu);
  if (fd < 0) return;  // not serving (yet, or any more)
  ids.push_back(id);
  if (ids.size() == 1) {
    // Written under the lock: stop() cannot close the fd in between.
    const u64 one = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof one);
  }
}

NetServer::Stats NetServer::stats() const noexcept {
  Stats s;
  s.connections_accepted = stats_->accepted.load(std::memory_order_relaxed);
  s.connections_closed = stats_->closed.load(std::memory_order_relaxed);
  s.protocol_errors = stats_->protocol_errors.load(std::memory_order_relaxed);
  s.sessions_opened = stats_->opened.load(std::memory_order_relaxed);
  s.sessions_resumed = stats_->resumed.load(std::memory_order_relaxed);
  s.sessions_parked = stats_->parked.load(std::memory_order_relaxed);
  s.sessions_evicted = stats_->evicted.load(std::memory_order_relaxed);
  s.events_sent = stats_->events_sent.load(std::memory_order_relaxed);
  s.events_shed = stats_->events_shed.load(std::memory_order_relaxed);
  s.bytes_in = stats_->bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_->bytes_out.load(std::memory_order_relaxed);
  return s;
}

// ------------------------------------------------------------------ registry

WireError NetServer::admit(const OpenFrame& f, stream::SessionId& sid, StatsAck& ack) {
  auto it = registry_.find(f.token);
  if (it != registry_.end()) {
    TokenEntry& e = it->second;
    if (e.st == TokenState::Attached) {
      // Its previous connection has not parked it yet (parking is
      // asynchronous after a disconnect): the client retries shortly.
      return WireError::SessionBusy;
    }
    if (e.st == TokenState::Parked) {
      // Warm re-pair: the OPEN's pipeline config is ignored, the parked
      // session keeps its trained detector thresholds.
      e.st = TokenState::Attached;
      e.lru_seq = ++lru_counter_;
      sid = e.sid;
      ack = StatsAck::Resumed;
      stats_->resumed.fetch_add(1, std::memory_order_relaxed);
      return WireError::None;
    }
    // ClosedKept: the finished record is discarded and the token starts a
    // fresh session with the OPEN's configuration.
    (void)stream_.release(e.sid);
    registry_.erase(it);
  }
  stream::SessionSpec spec;
  try {
    spec.config = f.config();
  } catch (const std::exception&) {
    return WireError::Internal;
  }
  spec.keep_detection = false;  // unbounded serving stream: O(window) state
  while (true) {
    try {
      sid = stream_.open(spec);
      break;
    } catch (const std::exception&) {
      // At the stream layer's ceiling the front door evicts instead of
      // refusing: stalest Closed-but-unreleased record first, then the
      // stalest parked session.
      if (!evict_one()) return WireError::SessionLimit;
    }
  }
  registry_[f.token] = TokenEntry{sid, TokenState::Attached, ++lru_counter_};
  ack = StatsAck::Open;
  stats_->opened.fetch_add(1, std::memory_order_relaxed);
  return WireError::None;
}

bool NetServer::evict_one() {
  auto pick = [&](TokenState st) {
    auto best = registry_.end();
    for (auto it = registry_.begin(); it != registry_.end(); ++it) {
      if (it->second.st != st) continue;
      if (best == registry_.end() || it->second.lru_seq < best->second.lru_seq) {
        best = it;
      }
    }
    return best;
  };
  auto victim = pick(TokenState::ClosedKept);
  if (victim == registry_.end()) victim = pick(TokenState::Parked);
  if (victim == registry_.end()) return false;  // only live connections remain
  (void)stream_.release(victim->second.sid);
  registry_.erase(victim);
  stats_->evicted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ----------------------------------------------------------------- event loop

void NetServer::loop() {
  std::array<epoll_event, 64> events{};
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                               next_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const u64 key = events[i].data.u64;
      const u32 flags = events[i].events;
      if (key == kListenKey) {
        accept_ready();
        continue;
      }
      if (key == kWakeKey) {
        u64 v = 0;
        while (::read(wake_fd_, &v, sizeof v) > 0) {
        }
        serve_notified();
        continue;
      }
      Conn* c = live(key);
      if (c == nullptr) continue;  // killed earlier in this batch
      if ((flags & EPOLLIN) != 0) read_ready(*c);
      if (!c->dead && (flags & EPOLLOUT) != 0) flush_out(*c);
      if (!c->dead && (flags & (EPOLLHUP | EPOLLERR)) != 0) kill_conn(*c, false);
    }
    serve_timers();
    end_iteration();
  }
  // Shutdown: every connection closes and its session starts parking warm.
  // Operations still landing are abandoned with the server.
  for (const auto& [key, c] : conns_) {
    if (!c->dead) kill_conn(*c, false);
  }
  conns_.clear();
  by_slot_.clear();
  timed_.clear();
  dirty_.clear();
  retired_.clear();
}

NetServer::Conn* NetServer::live(u64 key) const {
  const auto it = conns_.find(key);
  return it == conns_.end() || it->second->dead ? nullptr : it->second.get();
}

void NetServer::end_iteration() {
  // One send per connection per wake-up: the EVENT frames and the control
  // reply that completed in it leave together.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    if (Conn* c = live(dirty_[i])) {
      c->dirty = false;
      flush_out(*c);
    }
  }
  dirty_.clear();
  for (const u64 key : retired_) conns_.erase(key);  // closes the fd
  retired_.clear();
}

void NetServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a transient error): nothing more to take
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Conn>();
    conn->key = next_key_++;
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->key;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) continue;  // ~Conn closes fd
    conns_.emplace(conn->key, std::move(conn));
    stats_->accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::update_epoll(Conn& c) {
  if (c.dead) return;
  epoll_event ev{};
  ev.events = (c.epoll_in ? EPOLLIN : 0u) | (c.epoll_out ? EPOLLOUT : 0u);
  ev.data.u64 = c.key;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void NetServer::set_reading(Conn& c) {
  const bool want = !c.stalled && !c.held;
  if (want != c.epoll_in) {
    c.epoll_in = want;
    update_epoll(c);
  }
}

// ------------------------------------------------------------------- ingest

void NetServer::read_ready(Conn& c) {
  // Budgeted so one flooding connection cannot starve the others; the
  // level-triggered EPOLLIN re-fires for the remainder.
  std::size_t budget = 256 * 1024;
  u8 scratch[4096];
  while (!c.dead && !c.stalled && !c.held && budget > 0) {
    ssize_t r = 0;
    switch (c.rx) {
      case Conn::Rx::Header:
        r = ::recv(c.fd, c.hdr_raw.data() + c.hdr_fill, kHeaderBytes - c.hdr_fill, 0);
        if (r > 0) {
          c.hdr_fill += static_cast<std::size_t>(r);
          if (c.hdr_fill == kHeaderBytes) {
            c.hdr_fill = 0;
            count_in(c, static_cast<std::size_t>(r));
            if (!on_header(c)) return;
            budget -= std::min(budget, static_cast<std::size_t>(r));
            continue;
          }
        }
        break;
      case Conn::Rx::Payload:
        r = ::recv(c.fd, c.payload.data() + c.fill, c.payload.size() - c.fill, 0);
        if (r > 0) {
          c.fill += static_cast<std::size_t>(r);
          if (c.fill == c.payload.size()) {
            c.rx = Conn::Rx::Header;
            count_in(c, static_cast<std::size_t>(r));
            if (!handle_frame(c)) return;
            budget -= std::min(budget, static_cast<std::size_t>(r));
            continue;
          }
        }
        break;
      case Conn::Rx::Chunk: {
        // The zero-copy contract: CHUNK payload bytes land directly in the
        // StreamServer buffer loan; commit() hands them to a worker with no
        // intermediate copy anywhere.
        u8* base = reinterpret_cast<u8*>(c.loan.data().data());
        r = ::recv(c.fd, base + c.fill, c.hdr.payload_len - c.fill, 0);
        if (r > 0) {
          c.fill += static_cast<std::size_t>(r);
          if (c.fill == c.hdr.payload_len) {
            count_in(c, static_cast<std::size_t>(r));
            finish_chunk(c);
            if (c.dead) return;
            budget -= std::min(budget, static_cast<std::size_t>(r));
            continue;
          }
        }
        break;
      }
      case Conn::Rx::Discard:
        r = ::recv(c.fd, scratch, std::min(sizeof scratch, c.discard_left), 0);
        if (r > 0) {
          c.discard_left -= static_cast<std::size_t>(r);
          if (c.discard_left == 0) c.rx = Conn::Rx::Header;
        }
        break;
    }
    if (r > 0) {
      count_in(c, static_cast<std::size_t>(r));
      budget -= std::min(budget, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) {  // EOF: the client hung up; its session parks warm
      kill_conn(c, false);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    kill_conn(c, false);
    return;
  }
}

void NetServer::count_in(Conn& c, std::size_t n) {
  c.bytes_in += n;
  stats_->bytes_in.fetch_add(n, std::memory_order_relaxed);
}

bool NetServer::protocol_fatal(Conn& c, WireError code, std::string_view message) {
  stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  send_error(c, code, message);
  kill_conn(c, true);  // best-effort flush so the peer sees the ERROR first
  return false;
}

bool NetServer::on_header(Conn& c) {
  const WireError e =
      decode_header(std::span<const u8>(c.hdr_raw), c.hdr, opts_.max_frame_bytes);
  if (e != WireError::None) return protocol_fatal(c, e, "invalid frame header");
  switch (c.hdr.type) {
    case FrameType::Event:
    case FrameType::Stats:
    case FrameType::Error:
      return protocol_fatal(c, WireError::Malformed, "client-bound frame type");
    default:
      break;
  }
  if (!c.hello_done && c.hdr.type != FrameType::Hello) {
    return protocol_fatal(c, WireError::HelloRequired, "first frame must be HELLO");
  }
  if (c.hdr.type == FrameType::Chunk) return begin_chunk(c);
  if (c.hdr.payload_len > kMaxControlPayload) {
    return protocol_fatal(c, WireError::Malformed, "oversized control payload");
  }
  if (c.hdr.payload_len == 0) {
    c.payload.clear();
    return handle_frame(c);
  }
  c.payload.resize(c.hdr.payload_len);
  c.fill = 0;
  c.rx = Conn::Rx::Payload;
  return true;
}

bool NetServer::begin_chunk(Conn& c) {
  if (!c.has_session) {
    send_error(c, WireError::NoSession, "CHUNK without an open session");
    return start_discard(c);
  }
  if (c.hdr.payload_len % 4 != 0) {
    return protocol_fatal(c, WireError::Malformed, "CHUNK payload not a sample multiple");
  }
  const std::size_t n = c.hdr.payload_len / 4;
  if (opts_.stream.max_chunk_samples != 0 && n > opts_.stream.max_chunk_samples) {
    // Protocol bound enforced at the front door: the connection dies but the
    // session is NOT faulted — it parks warm like any other disconnect (the
    // stream layer's oversize quarantine is for in-process producers).
    return protocol_fatal(c, WireError::Oversize, "CHUNK exceeds max_chunk_samples");
  }
  c.chunk_samples = n;
  return try_start_chunk(c);
}

bool NetServer::try_start_chunk(Conn& c) {
  stream::ChunkLoan loan;
  const stream::PushResult r = stream_.try_acquire_buffer(c.sid, c.chunk_samples, loan);
  if (r == stream::PushResult::QueueFull) {
    // High-water mark: stop reading the connection (so TCP backpressure
    // reaches the client) and retry on the loop's millisecond tick. Each
    // failed attempt counts in the session's rejected_chunks — documented.
    c.stalled = true;
    set_reading(c);
    arm_timer(c);
    return true;
  }
  c.stalled = false;
  set_reading(c);
  if (r == stream::PushResult::Ok) {
    c.loan = std::move(loan);
    if (c.hdr.payload_len == 0) {
      finish_chunk(c);
      return !c.dead;
    }
    c.fill = 0;
    c.rx = Conn::Rx::Chunk;
    return true;
  }
  send_error(c, WireError::Refused,
             std::string("chunk refused: ") + stream::to_string(r));
  return !c.dead && start_discard(c);
}

bool NetServer::start_discard(Conn& c) {
  if (c.hdr.payload_len == 0) {
    c.rx = Conn::Rx::Header;
    return true;
  }
  c.discard_left = c.hdr.payload_len;
  c.rx = Conn::Rx::Discard;
  return true;
}

void NetServer::finish_chunk(Conn& c) {
  chunk_payload_to_samples(c.loan.data());  // no-op on little-endian hosts
  const stream::PushResult r = stream_.commit(c.loan);
  c.rx = Conn::Rx::Header;
  if (r != stream::PushResult::Ok) {
    // The session closed/faulted/reset between acquire and commit: the
    // samples were discarded by the stream layer; tell the client once.
    send_error(c, WireError::Refused,
               std::string("chunk discarded: ") + stream::to_string(r));
  }
}

bool NetServer::handle_frame(Conn& c) {
  if (c.op != Conn::Op::None) {
    // One control operation in flight per connection: this frame — and
    // everything behind it — waits until that one completes, so replies
    // keep request order without a command queue.
    c.held = true;
    set_reading(c);
    return true;
  }
  const std::span<const u8> p(c.payload);
  switch (c.hdr.type) {
    case FrameType::Hello: {
      HelloFrame h;
      const WireError e = decode_hello(p, h);
      if (e != WireError::None) return protocol_fatal(c, e, "bad HELLO");
      c.hello_done = true;
      send_stats(c, StatsAck::Hello, c.has_session ? stream_.session_stats(c.sid) : SessionStats{});
      break;
    }
    case FrameType::Open: {
      OpenFrame f;
      const WireError e = decode_open(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad OPEN");
      if (c.has_session) {
        send_error(c, WireError::SessionExists, "connection already has a session");
        break;
      }
      stream::SessionId sid{};
      StatsAck ack = StatsAck::Open;
      const WireError ae = admit(f, sid, ack);
      if (ae != WireError::None) {
        send_error(c, ae, "OPEN refused");
        break;
      }
      c.has_session = true;
      c.token = f.token;
      c.sid = sid;
      by_slot_[sid.slot] = &c;
      send_stats(c, ack, stream_.session_stats(sid));
      break;
    }
    case FrameType::Drain: {
      DrainFrame f;
      const WireError e = decode_drain(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad DRAIN");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "DRAIN without an open session");
        break;
      }
      start_drain(c, f.timeout_ms);
      break;
    }
    case FrameType::Close: {
      if (!p.empty()) return protocol_fatal(c, WireError::Malformed, "bad CLOSE");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "CLOSE without an open session");
        break;
      }
      start_close(c);
      break;
    }
    case FrameType::Reset: {
      ResetFrame f;
      const WireError e = decode_reset(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad RESET");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "RESET without an open session");
        break;
      }
      start_reset(c, f.warm);
      break;
    }
    default:
      return protocol_fatal(c, WireError::UnknownType, "unexpected frame");
  }
  return !c.dead;
}

// -------------------------------------------------------- control operations

void NetServer::start_drain(Conn& c, u32 timeout_ms) {
  if (timeout_ms > 0 && forward_events(c) == 0 && !terminal(stream_.session_stats(c.sid).state)) {
    // Nothing yet: the first event to land (or the deadline) completes it.
    c.op = Conn::Op::Drain;
    c.deadline = Clock::now() + std::chrono::milliseconds(std::min(timeout_ms, kMaxDrainTimeoutMs));
    arm_timer(c);
    return;
  }
  finish_drain(c);
}

void NetServer::finish_drain(Conn& c) {
  (void)forward_events(c);
  send_stats(c, StatsAck::Drain, stream_.session_stats(c.sid));
}

void NetServer::start_close(Conn& c) {
  c.has_session = false;  // the connection may OPEN again once this lands
  if (stream_.close_start(c.sid) == stream::StartResult::Pending) {
    c.op = Conn::Op::Close;
    return;
  }
  finish_close(c);
}

void NetServer::finish_close(Conn& c) {
  (void)forward_events(c);  // the flush tail goes out before the ack
  // The ack's ledger is read before the slot becomes evictable (eviction
  // releases it), and the ack leaves only after: a client that OPENs on the
  // ack must find the slot reclaimable.
  send_stats(c, StatsAck::Close, stream_.session_stats(c.sid));
  auto it = registry_.find(c.token);
  if (it != registry_.end() && it->second.st == TokenState::Attached && it->second.sid == c.sid) {
    // Closed-but-unreleased: inspectable/evictable until an OPEN reuses
    // the token or LRU admission reclaims the slot.
    it->second.st = TokenState::ClosedKept;
    it->second.lru_seq = ++lru_counter_;
  }
  unmap(c);
}

void NetServer::start_reset(Conn& c, bool warm) {
  c.op_resets = stream_.session_stats(c.sid).resets;
  const stream::StartResult r = stream_.reset_start(
      c.sid, warm ? pantompkins::WarmStart::KeepThresholds : pantompkins::WarmStart::Cold);
  if (r == stream::StartResult::Pending) {
    c.op = Conn::Op::Reset;
    return;
  }
  finish_reset(c, stream_.session_stats(c.sid));
}

void NetServer::finish_reset(Conn& c, const SessionStats& ss) {
  if (ss.state == stream::SessionState::Empty) {
    send_error(c, WireError::Refused, "RESET: session no longer exists");
    return;
  }
  send_stats(c, StatsAck::Reset, ss);
}

void NetServer::start_park(Conn& c) {
  // Disconnect -> warm park: the detector's trained thresholds survive for
  // the client's reconnect (OPEN with the same token resumes them).
  c.op_resets = stream_.session_stats(c.sid).resets;
  const stream::StartResult r = stream_.reset_start(c.sid, pantompkins::WarmStart::KeepThresholds);
  if (r == stream::StartResult::Pending) {
    c.op = Conn::Op::Park;
    return;
  }
  finish_park(c, r == stream::StartResult::Done);
}

void NetServer::finish_park(Conn& c, bool alive) {
  c.has_session = false;
  unmap(c);
  auto it = registry_.find(c.token);
  if (it == registry_.end() || it->second.st != TokenState::Attached ||
      !(it->second.sid == c.sid)) {
    return;
  }
  if (alive) {
    it->second.st = TokenState::Parked;
    it->second.lru_seq = ++lru_counter_;
    stats_->parked.fetch_add(1, std::memory_order_relaxed);
  } else {
    registry_.erase(it);  // released under us: nothing left to resume
  }
}

void NetServer::serve_notified() {
  {
    const common::MutexLock lock(notify_.mu);
    notified_.swap(notify_.ids);
  }
  for (const stream::SessionId id : notified_) {
    const auto it = by_slot_.find(id.slot);
    if (it != by_slot_.end() && it->second->sid == id) service(*it->second);
  }
  notified_.clear();
}

void NetServer::service(Conn& c) {
  using Op = Conn::Op;
  switch (c.op) {
    case Op::None:
      (void)forward_events(c);
      return;
    case Op::Drain:
      if (forward_events(c) == 0 && !terminal(stream_.session_stats(c.sid).state)) return;
      finish_drain(c);
      break;
    case Op::Close:
      (void)forward_events(c);
      if (!terminal(stream_.session_stats(c.sid).state)) return;
      finish_close(c);
      break;
    case Op::Reset:
    case Op::Park: {
      // Nothing is forwarded before the re-arm lands: what the egress queue
      // holds until then is the abandoned episode's, and dies with it.
      const SessionStats ss = stream_.session_stats(c.sid);
      const bool alive = ss.state != stream::SessionState::Empty;
      if (alive && ss.resets == c.op_resets) return;
      if (c.op == Op::Reset) {
        finish_reset(c, ss);
      } else {
        finish_park(c, alive);
      }
      break;
    }
  }
  c.op = Op::None;
  settle(c);
}

void NetServer::settle(Conn& c) {
  if (c.dead) {
    // A closed connection's session parks once nothing else is landing.
    if (c.op == Conn::Op::None && c.has_session) start_park(c);
    if (c.op == Conn::Op::None) retire(c);
    return;
  }
  if (!c.held) return;
  c.held = false;
  if (!handle_frame(c)) return;
  set_reading(c);
  read_ready(c);  // whatever the client pipelined behind it, in this wake-up
}

void NetServer::arm_timer(Conn& c) {
  if (c.timed) return;
  c.timed = true;
  timed_.push_back(c.key);
}

void NetServer::serve_timers() {
  if (timed_.empty()) return;
  const auto now = Clock::now();
  std::vector<u64> due;
  due.swap(timed_);
  for (const u64 key : due) {
    Conn* c = live(key);
    if (c == nullptr) continue;
    c->timed = false;
    if (c->stalled) (void)try_start_chunk(*c);
    if (!c->dead && c->op == Conn::Op::Drain && now >= c->deadline) {
      finish_drain(*c);
      c->op = Conn::Op::None;
      settle(*c);
    }
    if (!c->dead && (c->stalled || c->op == Conn::Op::Drain)) arm_timer(*c);
  }
}

int NetServer::next_timeout_ms() const {
  int timeout = -1;  // nothing timed: every other wake-up source is an fd
  const auto now = Clock::now();
  for (const u64 key : timed_) {
    const Conn* c = live(key);
    if (c == nullptr) continue;
    if (c->stalled) return 1;  // retry the acquire on a millisecond tick
    if (c->op == Conn::Op::Drain) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(c->deadline - now).count();
      const int ms = static_cast<int>(std::clamp<std::int64_t>(left, 0, kMaxDrainTimeoutMs));
      timeout = timeout < 0 ? ms : std::min(timeout, ms);
    }
  }
  return timeout;
}

// -------------------------------------------------------------------- egress

std::size_t NetServer::forward_events(Conn& c) {
  if (c.dead) return 0;
  evs_.clear();
  const std::size_t n = stream_.drain_events(c.sid, evs_);
  for (std::size_t i = 0; i < n; i += kMaxEventsPerFrame) {
    const std::size_t k = std::min(kMaxEventsPerFrame, n - i);
    const std::size_t mark = c.out.size();
    encode_events(c.out, std::span<const stream::Event>(evs_).subspan(i, k));
    if (c.out.size() - c.out_off > opts_.egress_buffer_bytes) {
      // Slow-reader shedding: whole EVENT frames drop (frames must never
      // tear), counted instead of growing the buffer without bound.
      c.out.resize(mark);
      c.events_shed += k;
      stats_->events_shed.fetch_add(k, std::memory_order_relaxed);
      continue;
    }
    c.events_sent += k;
    stats_->events_sent.fetch_add(k, std::memory_order_relaxed);
  }
  if (n > 0) mark_dirty(c);
  return n;
}

StatsFrame NetServer::make_stats(const Conn& c, StatsAck ack, const SessionStats& ss) const {
  StatsFrame f;
  f.ack = ack;
  f.session_state = static_cast<u8>(ss.state);
  f.chunks_in = ss.chunks_in;
  f.chunks_processed = ss.chunks_processed;
  f.rejected_chunks = ss.rejected_chunks;
  f.dropped_chunks = ss.dropped_chunks;
  f.samples = ss.samples;
  f.events = ss.events;
  f.beats = ss.beats;
  f.events_queued = ss.events_queued;
  f.events_dropped = ss.events_dropped;
  f.resets = ss.resets;
  f.net_events_sent = c.events_sent;
  f.net_events_shed = c.events_shed;
  f.net_bytes_in = c.bytes_in;
  f.net_bytes_out = c.bytes_out;
  return f;
}

void NetServer::send_stats(Conn& c, StatsAck ack, const SessionStats& ss) {
  if (c.dead) return;
  const std::size_t mark = c.out.size();
  encode_stats(c.out, make_stats(c, ack, ss));
  queued_control(c, mark);
}

void NetServer::send_error(Conn& c, WireError code, std::string_view message) {
  if (c.dead) return;
  const std::size_t mark = c.out.size();
  encode_error(c.out, code, message);
  queued_control(c, mark);
}

void NetServer::queued_control(Conn& c, std::size_t mark) {
  // Control replies are never shed; a connection that cannot absorb even
  // those is a broken reader and is closed.
  if (c.out.size() - c.out_off > 2 * opts_.egress_buffer_bytes) {
    c.out.resize(mark);
    kill_conn(c, true);
    return;
  }
  mark_dirty(c);
}

void NetServer::mark_dirty(Conn& c) {
  if (c.dirty) return;
  c.dirty = true;
  dirty_.push_back(c.key);
}

void NetServer::flush_out(Conn& c) {
  if (c.dead) return;
  while (c.out_off < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += static_cast<std::size_t>(w);
      c.bytes_out += static_cast<u64>(w);
      stats_->bytes_out.fetch_add(static_cast<u64>(w), std::memory_order_relaxed);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    kill_conn(c, false);
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off > (1u << 16)) {
    c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
    c.out_off = 0;
  }
  const bool want_write = c.out_off < c.out.size();
  if (want_write != c.epoll_out) {
    c.epoll_out = want_write;
    update_epoll(c);
  }
}

// --------------------------------------------------------------- teardown

void NetServer::kill_conn(Conn& c, bool flush_first) {
  if (c.dead) return;
  if (flush_first) {
    // Best-effort: push the pending bytes (typically the fatal ERROR reply)
    // out before the shutdown, so the peer learns why it was dropped.
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w <= 0) break;
      c.out_off += static_cast<std::size_t>(w);
      stats_->bytes_out.fetch_add(static_cast<u64>(w), std::memory_order_relaxed);
    }
  }
  c.dead = true;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  (void)::shutdown(c.fd, SHUT_RDWR);  // the fd itself closes when the Conn is destroyed
  c.loan = stream::ChunkLoan{};        // abandon: the reserved queue slot returns
  c.out = {};
  c.out_off = 0;
  c.stalled = false;
  c.held = false;
  stats_->closed.fetch_add(1, std::memory_order_relaxed);
  if (c.op == Conn::Op::Drain) c.op = Conn::Op::None;  // its reply has nowhere to go
  // A CLOSE or RESET still landing finishes first; then settle() parks.
  if (c.op == Conn::Op::None) settle(c);
}

void NetServer::unmap(Conn& c) {
  const auto it = by_slot_.find(c.sid.slot);
  if (it != by_slot_.end() && it->second == &c) by_slot_.erase(it);
}

void NetServer::retire(Conn& c) {
  unmap(c);
  retired_.push_back(c.key);
}

}  // namespace xbs::net
