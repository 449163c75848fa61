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
#include <deque>
#include <stdexcept>
#include <utility>

namespace xbs::net {

using namespace std::chrono_literals;

namespace {

/// Control (non-CHUNK) payloads are all tiny fixed layouts; anything bigger
/// than this is hostile even when it fits the frame bound.
constexpr std::size_t kMaxControlPayload = 4096;
/// Events per EVENT frame, so one drain burst never overflows the peer's
/// frame bound (1024 * 72B + 8B header comfortably under 1 MiB).
constexpr std::size_t kMaxEventsPerFrame = 1024;
/// Upper bound the server enforces on DRAIN waits, so a hostile timeout
/// cannot wedge a pump thread for minutes.
constexpr u32 kMaxDrainTimeoutMs = 5000;

stream::StreamServer::Options normalize(stream::StreamServer::Options so) {
  // The wire has no event path without pull-model egress: raise a zero.
  if (so.event_queue_capacity == 0) so.event_queue_capacity = 1024;
  return so;
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

/// Loop -> pump commands (executed in arrival order, so an Attach from a
/// re-OPEN always lands after the Close/Park of the previous record).
struct NetServer::Cmd {
  enum class Kind { Attach, Drain, Close, Reset, Park };
  Kind kind = Kind::Attach;
  stream::SessionId sid{};
  u64 token = 0;
  u32 timeout_ms = 0;
  bool warm = false;
};

struct NetServer::Conn {
  int fd = -1;

  // Receive state machine — event-loop thread only.
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
  bool has_session = false;
  u64 token = 0;
  stream::SessionId sid{};
  bool stalled = false;  ///< session at its high-water mark: EPOLLIN off
  bool dead = false;
  bool epoll_in = true;
  bool epoll_out = false;

  // Egress buffer — shared between the loop (flush) and the pump (append).
  // Rank kNetConn, like every front-door lock; out_mu, cmd_mu and the
  // registry lock are never held together (same-rank nesting asserts in
  // Debug), they just all sit below the stream layer's shard locks.
  common::Mutex out_mu{common::LockRank::kNetConn};
  std::vector<u8> out XBS_GUARDED_BY(out_mu);
  std::size_t out_off XBS_GUARDED_BY(out_mu) = 0;
  std::atomic<bool> kill_requested{false};

  // Command queue + pump lifecycle.
  common::Mutex cmd_mu{common::LockRank::kNetConn};
  common::CondVar cmd_cv;
  std::deque<Cmd> cmds XBS_GUARDED_BY(cmd_mu);
  std::atomic<bool> pump_stop{false};
  std::atomic<bool> pump_done{false};
  std::thread pump;

  // Per-connection counters (surfaced in STATS frames).
  std::atomic<u64> n_events_sent{0};
  std::atomic<u64> n_events_shed{0};
  std::atomic<u64> n_bytes_in{0};
  std::atomic<u64> n_bytes_out{0};
};

// ------------------------------------------------------------- construction

NetServer::NetServer(Options opts)
    : opts_(std::move(opts)), stream_(normalize(opts_.stream)) {
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
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) fail("epoll add");
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) fail("epoll add");

  loop_thread_ = std::thread([this] { loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  // Owner-thread lifecycle call (the destructor path); not for concurrent use.
  if (!stop_.exchange(true)) wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Post-join: every thread that could write wake_fd_ (the loop, the pumps
  // it joined before exiting, the wake in this call) happens-before here.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void NetServer::wake_loop() {
  const u64 one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
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
  const common::MutexLock lock(reg_mu_);
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
      if (!evict_one_locked()) return WireError::SessionLimit;
    }
  }
  registry_[f.token] = TokenEntry{sid, TokenState::Attached, ++lru_counter_};
  ack = StatsAck::Open;
  stats_->opened.fetch_add(1, std::memory_order_relaxed);
  return WireError::None;
}

bool NetServer::evict_one_locked() {
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

// -------------------------------------------------------------------- egress

void NetServer::send_frame(Conn& c, const std::vector<u8>& bytes, std::size_t n_events) {
  bool kill = false;
  {
    const common::MutexLock lock(c.out_mu);
    const std::size_t pending = c.out.size() - c.out_off;
    if (n_events > 0 && pending + bytes.size() > opts_.egress_buffer_bytes) {
      // Slow-reader shedding: whole EVENT frames drop (frames must never
      // tear), counted instead of growing the buffer without bound.
      c.n_events_shed.fetch_add(n_events, std::memory_order_relaxed);
      stats_->events_shed.fetch_add(n_events, std::memory_order_relaxed);
      return;
    }
    if (n_events == 0 && pending + bytes.size() > 2 * opts_.egress_buffer_bytes) {
      kill = true;  // cannot even absorb control replies: broken reader
    } else {
      c.out.insert(c.out.end(), bytes.begin(), bytes.end());
      if (n_events > 0) {
        c.n_events_sent.fetch_add(n_events, std::memory_order_relaxed);
        stats_->events_sent.fetch_add(n_events, std::memory_order_relaxed);
      }
    }
  }
  if (kill) c.kill_requested.store(true, std::memory_order_relaxed);
  wake_loop();
}

void NetServer::send_error(Conn& c, WireError code, std::string_view message) {
  std::vector<u8> buf;
  encode_error(buf, code, message);
  send_frame(c, buf, 0);
}

StatsFrame NetServer::make_stats(const Conn& c, StatsAck ack, stream::SessionId sid) const {
  StatsFrame f;
  f.ack = ack;
  const auto ss = stream_.session_stats(sid);  // Empty defaults for a stale id
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
  f.net_events_sent = c.n_events_sent.load(std::memory_order_relaxed);
  f.net_events_shed = c.n_events_shed.load(std::memory_order_relaxed);
  f.net_bytes_in = c.n_bytes_in.load(std::memory_order_relaxed);
  f.net_bytes_out = c.n_bytes_out.load(std::memory_order_relaxed);
  return f;
}

// ---------------------------------------------------------------- pump thread

void NetServer::pump_loop(Conn& c) {
  bool attached = false;
  bool idle = false;  // session terminal: stop draining until a command
  stream::SessionId sid{};
  u64 token = 0;
  std::vector<stream::Event> evs;
  std::vector<u8> frame;
  auto send_events = [&](std::vector<stream::Event>& batch) {
    for (std::size_t i = 0; i < batch.size(); i += kMaxEventsPerFrame) {
      const std::size_t n = std::min(kMaxEventsPerFrame, batch.size() - i);
      frame.clear();
      encode_events(frame, std::span<const stream::Event>(batch).subspan(i, n));
      send_frame(c, frame, n);
    }
  };
  auto send_stats = [&](StatsAck ack, stream::SessionId id) {
    frame.clear();
    encode_stats(frame, make_stats(c, ack, id));
    send_frame(c, frame, 0);
  };
  while (true) {
    Cmd cmd;
    bool have = false;
    {
      common::MutexLock lock(c.cmd_mu);
      if (!c.cmds.empty()) {
        cmd = c.cmds.front();
        c.cmds.pop_front();
        have = true;
      } else if (c.pump_stop.load(std::memory_order_relaxed)) {
        break;
      } else if (!attached || idle) {
        c.cmd_cv.wait_for(lock, 50ms);
        continue;
      }
    }
    if (have) {
      switch (cmd.kind) {
        case Cmd::Kind::Attach:
          attached = true;
          idle = false;
          sid = cmd.sid;
          token = cmd.token;
          break;
        case Cmd::Kind::Drain: {
          if (!attached) break;
          evs.clear();
          if (cmd.timeout_ms > 0) {
            (void)stream_.drain_events(
                sid, evs,
                std::chrono::milliseconds(std::min(cmd.timeout_ms, kMaxDrainTimeoutMs)));
          } else {
            (void)stream_.drain_events(sid, evs);
          }
          send_events(evs);
          send_stats(StatsAck::Drain, sid);
          break;
        }
        case Cmd::Kind::Close: {
          if (!attached) break;
          (void)stream_.close(sid);  // waits for the drain + flush to land
          evs.clear();
          (void)stream_.drain_events(sid, evs);  // the flush tail
          send_events(evs);
          // The ack is built before the slot becomes evictable (eviction
          // releases it) but sent only after: a client that OPENs on the
          // ack must find the slot reclaimable.
          frame.clear();
          encode_stats(frame, make_stats(c, StatsAck::Close, sid));
          {
            const common::MutexLock lock(reg_mu_);
            auto it = registry_.find(token);
            if (it != registry_.end() && it->second.st == TokenState::Attached &&
                it->second.sid == sid) {
              // Closed-but-unreleased: inspectable/evictable until an OPEN
              // reuses the token or LRU admission reclaims the slot.
              it->second.st = TokenState::ClosedKept;
              it->second.lru_seq = ++lru_counter_;
            }
          }
          send_frame(c, frame, 0);
          attached = false;
          break;
        }
        case Cmd::Kind::Reset: {
          if (!attached) break;
          const bool ok = stream_.reset(sid, cmd.warm
                                                 ? pantompkins::WarmStart::KeepThresholds
                                                 : pantompkins::WarmStart::Cold);
          if (ok) {
            idle = false;
            send_stats(StatsAck::Reset, sid);
          } else {
            send_error(c, WireError::Refused, "RESET: session no longer exists");
          }
          break;
        }
        case Cmd::Kind::Park:
          if (attached) {
            pump_park(c, token, sid);
            attached = false;
          }
          break;
      }
      continue;
    }
    // Attached and live: sleep in the stream layer until events arrive (the
    // blocking drain — no spin-polling), then stream them out.
    evs.clear();
    if (stream_.drain_events(sid, evs, 20ms) > 0) {
      send_events(evs);
      continue;
    }
    // Timed out — or the session went terminal, which returns 0 immediately
    // and would otherwise busy-spin this thread.
    const auto st = stream_.session_stats(sid).state;
    if (st == stream::SessionState::Closed || st == stream::SessionState::Faulted ||
        st == stream::SessionState::Empty) {
      idle = true;
    }
  }
  c.pump_done.store(true, std::memory_order_release);
  wake_loop();  // the reaper notices promptly
}

void NetServer::pump_park(Conn& c, u64 token, stream::SessionId sid) {
  (void)c;
  // Disconnect -> warm park: the detector's trained thresholds survive for
  // the client's reconnect (OPEN with the same token resumes them).
  const bool ok = stream_.reset(sid, pantompkins::WarmStart::KeepThresholds);
  const common::MutexLock lock(reg_mu_);
  auto it = registry_.find(token);
  if (it == registry_.end() || it->second.st != TokenState::Attached ||
      !(it->second.sid == sid)) {
    return;
  }
  if (ok) {
    it->second.st = TokenState::Parked;
    it->second.lru_seq = ++lru_counter_;
    stats_->parked.fetch_add(1, std::memory_order_relaxed);
  } else {
    registry_.erase(it);  // released under us: nothing left to resume
  }
}

// ----------------------------------------------------------- event-loop thread

void NetServer::loop() {
  std::array<epoll_event, 64> events{};
  while (!stop_.load(std::memory_order_relaxed)) {
    bool any_stalled = false;
    for (const auto& [fd, c] : conns_) {
      if (c->stalled) {
        any_stalled = true;
        break;
      }
    }
    // A stalled connection retries its acquire on a millisecond tick; the
    // graveyard is swept on a slower one; otherwise sleep long (every state
    // change that matters also writes the eventfd).
    const int timeout_ms = any_stalled ? 1 : (graveyard_.empty() ? 200 : 10);
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const u32 flags = events[i].events;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        u64 v = 0;
        while (::read(wake_fd_, &v, sizeof v) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // killed earlier in this batch
      Conn& c = *it->second;
      if ((flags & EPOLLIN) != 0) read_ready(c);
      if (!c.dead && (flags & EPOLLOUT) != 0) flush_out(c);
      if (!c.dead && (flags & (EPOLLHUP | EPOLLERR)) != 0) kill_conn(c, false);
    }
    // Housekeeping sweep: pump-requested kills, pending egress, stall
    // retries. Connection counts are small; the scan is cheaper than
    // tracking dirtiness per wakeup source.
    std::vector<Conn*> sweep;
    sweep.reserve(conns_.size());
    for (const auto& [fd, c] : conns_) sweep.push_back(c.get());
    for (Conn* c : sweep) {
      if (c->dead) continue;
      if (c->kill_requested.load(std::memory_order_relaxed)) {
        kill_conn(*c, true);
        continue;
      }
      if (c->stalled) (void)try_start_chunk(*c);
      if (!c->dead) flush_out(*c);
    }
    reap_graveyard(false);
  }
  // Shutdown: every connection closes (sessions park warm) and every pump
  // joins before the embedded StreamServer is torn down.
  std::vector<Conn*> all;
  all.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) all.push_back(c.get());
  for (Conn* c : all) kill_conn(*c, false);
  reap_graveyard(true);
  // The fds are closed by stop() after this thread joins: wake_loop() may
  // still be mid-write on another thread, and closing under it would race
  // (worse, the fd number could be recycled).
}

void NetServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a transient error): nothing more to take
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Conn>();
    Conn& c = *conn;
    c.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    c.pump = std::thread([this, &c] { pump_loop(c); });
    conns_.emplace(fd, std::move(conn));
    stats_->accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::update_epoll(Conn& c) {
  if (c.dead) return;
  epoll_event ev{};
  ev.events = (c.epoll_in ? EPOLLIN : 0u) | (c.epoll_out ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void NetServer::read_ready(Conn& c) {
  // Budgeted so one flooding connection cannot starve the others; the
  // level-triggered EPOLLIN re-fires for the remainder.
  std::size_t budget = 256 * 1024;
  u8 scratch[4096];
  while (!c.dead && !c.stalled && budget > 0) {
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
  c.n_bytes_in.fetch_add(n, std::memory_order_relaxed);
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
    // High-water mark: park the connection (EPOLLIN off, so TCP backpressure
    // reaches the client) and retry on the loop's millisecond tick. Each
    // failed attempt counts in the session's rejected_chunks — documented.
    if (!c.stalled) {
      c.stalled = true;
      c.epoll_in = false;
      update_epoll(c);
    }
    return true;
  }
  if (c.stalled) {
    c.stalled = false;
    c.epoll_in = true;
    update_epoll(c);
  }
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
  return start_discard(c);
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
  if (r != stream::PushResult::Ok) {
    // The session closed/faulted/reset between acquire and commit: the
    // samples were discarded by the stream layer; tell the client once.
    send_error(c, WireError::Refused,
               std::string("chunk discarded: ") + stream::to_string(r));
  }
  c.rx = Conn::Rx::Header;
}

void NetServer::push_cmd(Conn& c, Cmd cmd) {
  {
    const common::MutexLock lock(c.cmd_mu);
    c.cmds.push_back(cmd);
  }
  c.cmd_cv.notify_all();
}

bool NetServer::handle_frame(Conn& c) {
  const std::span<const u8> p(c.payload);
  switch (c.hdr.type) {
    case FrameType::Hello: {
      HelloFrame h;
      const WireError e = decode_hello(p, h);
      if (e != WireError::None) return protocol_fatal(c, e, "bad HELLO");
      c.hello_done = true;
      std::vector<u8> buf;
      encode_stats(buf, make_stats(c, StatsAck::Hello,
                                   c.has_session ? c.sid : stream::SessionId{}));
      send_frame(c, buf, 0);
      return true;
    }
    case FrameType::Open: {
      OpenFrame f;
      const WireError e = decode_open(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad OPEN");
      if (c.has_session) {
        send_error(c, WireError::SessionExists, "connection already has a session");
        return true;
      }
      stream::SessionId sid{};
      StatsAck ack = StatsAck::Open;
      const WireError ae = admit(f, sid, ack);
      if (ae != WireError::None) {
        send_error(c, ae, "OPEN refused");
        return true;
      }
      c.has_session = true;
      c.token = f.token;
      c.sid = sid;
      push_cmd(c, Cmd{Cmd::Kind::Attach, sid, f.token, 0, false});
      std::vector<u8> buf;
      encode_stats(buf, make_stats(c, ack, sid));
      send_frame(c, buf, 0);
      return true;
    }
    case FrameType::Drain: {
      DrainFrame f;
      const WireError e = decode_drain(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad DRAIN");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "DRAIN without an open session");
        return true;
      }
      push_cmd(c, Cmd{Cmd::Kind::Drain, c.sid, c.token, f.timeout_ms, false});
      return true;
    }
    case FrameType::Close: {
      if (!p.empty()) return protocol_fatal(c, WireError::Malformed, "bad CLOSE");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "CLOSE without an open session");
        return true;
      }
      push_cmd(c, Cmd{Cmd::Kind::Close, c.sid, c.token, 0, false});
      // The connection can OPEN a fresh session right away; the pump's
      // command order keeps the records serialized.
      c.has_session = false;
      return true;
    }
    case FrameType::Reset: {
      ResetFrame f;
      const WireError e = decode_reset(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad RESET");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "RESET without an open session");
        return true;
      }
      push_cmd(c, Cmd{Cmd::Kind::Reset, c.sid, c.token, 0, f.warm});
      return true;
    }
    default:
      return protocol_fatal(c, WireError::UnknownType, "unexpected frame");
  }
}

void NetServer::flush_out(Conn& c) {
  if (c.dead) return;
  bool failed = false;
  bool want_write = false;
  {
    const common::MutexLock lock(c.out_mu);
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c.out_off += static_cast<std::size_t>(w);
        c.n_bytes_out.fetch_add(static_cast<u64>(w), std::memory_order_relaxed);
        stats_->bytes_out.fetch_add(static_cast<u64>(w), std::memory_order_relaxed);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      failed = true;
      break;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    } else if (c.out_off > (1u << 16)) {
      c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
      c.out_off = 0;
    }
    want_write = c.out_off < c.out.size();
  }
  if (failed) {
    kill_conn(c, false);
    return;
  }
  if (want_write != c.epoll_out) {
    c.epoll_out = want_write;
    update_epoll(c);
  }
}

void NetServer::kill_conn(Conn& c, bool flush_first) {
  if (c.dead) return;
  c.dead = true;
  if (flush_first) {
    // Best-effort: push the pending bytes (typically the fatal ERROR reply)
    // out before the reset, so the peer learns why it was dropped.
    const common::MutexLock lock(c.out_mu);
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w <= 0) break;
      c.out_off += static_cast<std::size_t>(w);
      stats_->bytes_out.fetch_add(static_cast<u64>(w), std::memory_order_relaxed);
    }
  }
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  (void)::shutdown(c.fd, SHUT_RDWR);
  c.stalled = false;
  // An armed loan dies with the Conn (destructor = abandon: the reserved
  // queue slot returns). Tell the pump to park the session and exit.
  {
    const common::MutexLock lock(c.cmd_mu);
    if (c.has_session) {
      c.cmds.push_back(Cmd{Cmd::Kind::Park, c.sid, c.token, 0, false});
    }
    c.pump_stop.store(true, std::memory_order_relaxed);
  }
  c.cmd_cv.notify_all();
  c.has_session = false;
  stats_->closed.fetch_add(1, std::memory_order_relaxed);
  auto it = conns_.find(c.fd);
  if (it != conns_.end()) {
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
  }
}

void NetServer::reap_graveyard(bool wait_all) {
  for (auto it = graveyard_.begin(); it != graveyard_.end();) {
    Conn& c = **it;
    if (wait_all || c.pump_done.load(std::memory_order_acquire)) {
      if (c.pump.joinable()) c.pump.join();
      ::close(c.fd);
      it = graveyard_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace xbs::net
