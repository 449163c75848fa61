/// \file server.hpp
/// \brief The network ingest plane: an epoll-based non-blocking TCP front
/// door over the StreamServer, speaking the XBSP framing protocol.
///
/// NetServer turns the in-process serving layer into a deployable service
/// without giving up its zero-copy contract: a CHUNK frame's samples are
/// read off the socket *directly into* a StreamServer buffer loan
/// (socket -> loan.data() -> commit — no intermediate copy anywhere), and
/// finalized detector events stream back to the client as EVENT frames as
/// soon as the stream layer names their session, so egress neither polls
/// nor sleeps on a timer.
///
/// Threading model (one listener, C connections): one *event-loop* thread
/// owns the listening socket, every connection fd, all epoll state, every
/// out-buffer and all socket reads/writes; the front door runs no other
/// thread. The loop never blocks:
///   - chunk ingest uses try_acquire_buffer; a session at its high-water
///     mark parks the connection (EPOLLIN off — TCP backpressure reaches
///     the client) and retries on a millisecond tick;
///   - DRAIN, CLOSE, RESET and the disconnect park use only non-blocking
///     stream calls (drain_events, close_start, reset_start). The stream
///     workers' completion hook (StreamServer::Options::notify) appends the
///     session to one pending list and writes an eventfd; the loop then
///     sends the session's EVENT frames and the pending reply in the same
///     wake-up. A DRAIN that waits for its first event is a deadline folded
///     into the epoll_wait timeout;
///   - each connection has at most one control operation in flight. A
///     further control frame pauses reading that connection until it
///     completes, so replies keep request order; CHUNKs keep flowing while
///     a DRAIN or RESET waits. A connection that drops mid-operation still
///     completes the operation's registry transition.
///
/// The front door owns serving policy, not the stream layer:
///   - *admission with LRU eviction*: where StreamServer::open() throws at
///     max_sessions, NetServer instead evicts the least-recently-used
///     evictable slot — Closed-but-unreleased record first, then parked
///     (disconnected) sessions — and retries; ERROR SessionLimit only when
///     nothing is evictable;
///   - *warm re-pair*: a client disconnect parks its session via
///     reset(WarmStart::KeepThresholds); a later OPEN bearing the same token
///     re-attaches to the trained detector (STATS ack = Resumed);
///   - *slow-reader shedding*: each connection's egress buffer is bounded;
///     EVENT frames that would overflow it are dropped whole and counted
///     (events_shed) instead of wedging the loop or growing without bound.
///     Control replies (STATS/ERROR) are never shed — a connection that
///     cannot even absorb those is broken and gets closed.
///
/// Error isolation mirrors the stream layer: a malformed or hostile frame
/// quarantines only its own connection (fatal ERROR reply, then close); the
/// session it carried parks warm like any other disconnect, and every other
/// connection streams on undisturbed.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "xbs/common/sync.hpp"
#include "xbs/net/protocol.hpp"
#include "xbs/stream/server.hpp"

namespace xbs::net {

class NetServer {
 public:
  struct Options {
    /// Address to bind (ignored when listen_fd is given).
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 = ephemeral (read the outcome back with port()).
    u16 port = 0;
    /// Adopt an already-listening socket instead of binding one. The server
    /// takes ownership (closes it on stop). This is how the multi-process
    /// bench binds before forking clients.
    int listen_fd = -1;
    /// Ceiling on one frame's payload; a header advertising more is a fatal
    /// Oversize before anything is read or allocated.
    std::size_t max_frame_bytes = kDefaultMaxPayload;
    /// Per-connection bound on buffered egress bytes. EVENT frames that
    /// would overflow it are shed (counted); control frames that would
    /// overflow 2x the bound kill the connection.
    std::size_t egress_buffer_bytes = 256 * 1024;
    /// The embedded stream layer's configuration. Its event_queue_capacity
    /// bounds each session's undrained EVENTs between two wake-ups of the
    /// loop. The notify hook is the front door's own: one set here is
    /// replaced.
    stream::StreamServer::Options stream{};
  };

  /// Server-lifetime counters (relaxed atomics; read with stats()).
  struct Stats {
    u64 connections_accepted = 0;
    u64 connections_closed = 0;
    u64 protocol_errors = 0;    ///< fatal framing/payload violations
    u64 sessions_opened = 0;    ///< OPEN acks (fresh provisions)
    u64 sessions_resumed = 0;   ///< OPEN acks re-attaching a parked token
    u64 sessions_parked = 0;    ///< disconnects that parked a session warm
    u64 sessions_evicted = 0;   ///< slots reclaimed by LRU admission
    u64 events_sent = 0;        ///< events delivered in EVENT frames
    u64 events_shed = 0;        ///< events dropped by slow-reader shedding
    u64 bytes_in = 0;
    u64 bytes_out = 0;
  };

  explicit NetServer(Options opts);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolved when Options::port was 0).
  [[nodiscard]] u16 port() const noexcept { return port_; }

  /// The embedded stream layer (for in-process inspection in tests/benches;
  /// all StreamServer methods are thread-safe).
  [[nodiscard]] stream::StreamServer& stream() noexcept { return stream_; }

  [[nodiscard]] Stats stats() const noexcept;

  /// Stop accepting, close every connection (their sessions park warm) and
  /// join the loop thread. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Conn;
  using SessionStats = stream::StreamServer::SessionStats;

  // --- event-loop thread ---
  void loop();
  void accept_ready();
  void read_ready(Conn& c);
  void count_in(Conn& c, std::size_t n);
  bool on_header(Conn& c);
  bool handle_frame(Conn& c);
  bool begin_chunk(Conn& c);
  bool try_start_chunk(Conn& c);
  bool start_discard(Conn& c);
  void finish_chunk(Conn& c);
  bool protocol_fatal(Conn& c, WireError code, std::string_view message);
  // Control operations: start, then finish inline or when the stream layer
  // names the session (service) or a DRAIN deadline passes (serve_timers).
  void start_drain(Conn& c, u32 timeout_ms);
  void start_close(Conn& c);
  void start_reset(Conn& c, bool warm);
  void start_park(Conn& c);
  void finish_drain(Conn& c);
  void finish_close(Conn& c);
  void finish_reset(Conn& c, const SessionStats& ss);
  void finish_park(Conn& c, bool alive);
  void serve_notified();
  void service(Conn& c);
  void settle(Conn& c);
  void serve_timers();
  [[nodiscard]] int next_timeout_ms() const;
  void arm_timer(Conn& c);
  std::size_t forward_events(Conn& c);
  void send_stats(Conn& c, StatsAck ack, const SessionStats& ss);
  void send_error(Conn& c, WireError code, std::string_view message);
  void queued_control(Conn& c, std::size_t mark);
  void mark_dirty(Conn& c);
  void flush_out(Conn& c);
  void set_reading(Conn& c);
  void update_epoll(Conn& c);
  void kill_conn(Conn& c, bool flush_first);
  void unmap(Conn& c);
  void retire(Conn& c);
  void end_iteration();
  [[nodiscard]] Conn* live(u64 key) const;
  [[nodiscard]] StatsFrame make_stats(const Conn& c, StatsAck ack, const SessionStats& ss) const;

  // --- any thread ---
  void wake_loop();

  // --- token registry (event-loop thread) ---
  enum class TokenState { Attached, Parked, ClosedKept };
  struct TokenEntry {
    stream::SessionId sid{};
    TokenState st = TokenState::Attached;
    u64 lru_seq = 0;
  };
  WireError admit(const OpenFrame& f, stream::SessionId& sid, StatsAck& ack);
  bool evict_one();

  /// Where the stream layer's completion hook lands, from worker (and
  /// producer) threads: one pending list the loop takes on each wake-up.
  /// Rank kNetConn, the front door's only lock: the hook runs with no shard
  /// lock held, and the loop holds it only to swap the list. Declared
  /// before stream_ so it outlives the workers that call it.
  struct Notify {
    common::Mutex mu{common::LockRank::kNetConn};
    std::vector<stream::SessionId> ids XBS_GUARDED_BY(mu);
    int fd XBS_GUARDED_BY(mu) = -1;  ///< the loop's eventfd; -1 = disarmed
    /// Append \p id; write the eventfd only when the list was empty.
    void post(stream::SessionId id) XBS_EXCLUDES(mu);
  };

  Options opts_;
  Notify notify_;
  stream::StreamServer stream_;
  u16 port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: the completion hook (and stop()) nudge the loop
  std::atomic<bool> stop_{false};
  std::thread loop_thread_;

  // Loop thread only.
  /// By epoll key (never reused, unlike fd numbers). Includes closed
  /// connections whose control operation has not landed yet.
  std::unordered_map<u64, std::unique_ptr<Conn>> conns_;
  /// Session slot -> the connection it serves (its CLOSE or park may still
  /// be landing).
  std::unordered_map<std::size_t, Conn*> by_slot_;
  std::vector<u64> timed_;    ///< stalled connections and DRAIN deadlines
  std::vector<u64> dirty_;    ///< connections with output to flush this wake-up
  std::vector<u64> retired_;  ///< connections to destroy at the end of this wake-up
  std::vector<stream::SessionId> notified_;
  std::vector<stream::Event> evs_;
  u64 next_key_ = 2;  ///< 0 and 1 key the listener and the eventfd
  /// Client token -> its session. OPEN admits through it, and CLOSE and
  /// park completions move entries to evictable states; all of them run on
  /// this thread, so it needs no lock.
  std::unordered_map<u64, TokenEntry> registry_;
  u64 lru_counter_ = 0;

  struct StatsAtomics;
  std::unique_ptr<StatsAtomics> stats_;
};

}  // namespace xbs::net
