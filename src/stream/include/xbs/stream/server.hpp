/// \file server.hpp
/// \brief The long-running serving layer: a sharded session-slot table with
/// per-shard worker pools, zero-copy loanable-buffer ingest, bounded queues
/// with explicit backpressure, per-session fault isolation, and a pull-based
/// event egress.
///
/// A continuously deployed sensor-node service is not a batch job: streams
/// connect, drop, reconnect and misbehave while every other stream keeps
/// flowing. StreamServer owns a set of id-addressed session slots split
/// across N independent *shards* — each shard has its own lock, ready list
/// and worker set, and a session is pinned to the shard its id hashes to, so
/// control-plane calls (open/close/reset/release) on one session never
/// contend with ingest on another shard's sessions. Results are bit-identical
/// for any shard count: a session's chunk sequence, events and op counts
/// depend only on its own feed.
///
/// Ingest is allocation- and copy-free on the hot path. Producers either
/// borrow a chunk buffer from the session's ring and fill it in place —
///
///   ChunkLoan loan;
///   if (server.acquire_buffer(id, n, loan) == PushResult::Ok) {
///     adc.read_into(loan.data());   // fill in place: no copy anywhere
///     server.commit(loan);
///   }
///
/// — or use push()/try_push(), thin wrappers that acquire, memcpy the
/// caller's span and commit (one copy, still no allocation: the buffer comes
/// from the ring). Buffer ownership: between acquire and commit/destruction
/// the producer owns the buffer exclusively; commit() hands it to the
/// server; a destroyed uncommitted loan returns the buffer and its reserved
/// queue slot. Loans count toward the session's queue capacity and must not
/// outlive the server. A session's chunk order is its commit order — one
/// producer thread per session (the Session contract) keeps it meaningful.
///
/// Event egress is one pull queue per session: the server retains each
/// session's finalized events in a queue bounded by
/// Options::event_queue_capacity, which consumers poll with
/// drain_events(id) — no locking discipline needed, at the cost of the
/// bound: when a consumer lags more than the capacity, the oldest undrained
/// events are dropped (counted in SessionStats::events_dropped). reset()
/// discards undrained events of the abandoned episode the same way. On a
/// fault, the egress queue holds the events of fully processed chunks.
/// drain_events() never blocks: a consumer that must not poll (one thread
/// serving many sessions, like the network front door) sets Options::notify
/// and drains a session when it is named — the hook fires when the
/// session's egress queue turns non-empty, when it lands Closed or Faulted,
/// and when a deferred reset completes. SessionSpec::sink additionally sees
/// every event on the worker thread that finalizes it (shared sinks must
/// synchronize internally), part of a faulting chunk's events included.
///
/// Lifecycle: open() provisions a slot (re-using released ones),
/// close() drains + flushes, reset() re-arms a slot mid-flight for a fresh
/// record (dropping whatever was queued; optionally warm-starting the
/// detector — see pantompkins::WarmStart), release() hands the quiescent
/// Session object back and frees the slot for the next tenant. close() and
/// reset() are each a non-blocking start (close_start()/reset_start()) plus
/// a wait for the worker to land it; a caller that cannot wait uses the
/// start alone and learns of the landing from Options::notify. Ids carry a
/// provisioning generation, so a stale id held across release()/open()
/// addresses nothing instead of the slot's new tenant.
///
/// Accounting contract (the "clean ledger"): all SessionStats counters are
/// cumulative over the slot's provisioning generation — open() zeroes them,
/// reset() carries them (and increments `resets`). chunks_in counts chunks
/// accepted into the queue; rejected_chunks counts ingest refusals that
/// never entered it (try_push at the high-water mark, protocol violations);
/// dropped_chunks counts accepted chunks discarded before processing
/// (fault/reset queue drops). Whenever a slot is quiescent (no worker
/// mid-batch): chunks_in == chunks_processed + queued_chunks +
/// dropped_chunks.
///
/// Error isolation: anything a session throws inside a worker (a throwing
/// user sink) and any protocol violation detected at ingest (a chunk over
/// max_chunk_samples) quarantines *that* session: state becomes Faulted, the
/// error text is captured in its stats, its queue is dropped, and pushes are
/// refused until reset() re-arms or release() retires it. Workers never
/// re-throw, so one bad stream can neither kill the process nor wedge its
/// worker. A push() blocked at the high-water mark wakes and returns the
/// refusal reason the moment its session closes, faults or is released — it
/// never blocks on a session that can no longer accept.
///
/// Thread safety: all public methods are safe to call concurrently from any
/// thread. Per-session event order is preserved (a session is drained by at
/// most one worker at a time). stats() aggregates shard-consistent
/// snapshots; across shards the totals are a sum of per-shard snapshots
/// taken in sequence.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "xbs/common/ring.hpp"
#include "xbs/common/sync.hpp"
#include "xbs/stream/session.hpp"

namespace xbs::stream {

/// Lifecycle state of a server slot.
enum class SessionState {
  Empty,     ///< not provisioned (or released)
  Open,      ///< streaming: accepts pushes, a worker drains its queue
  Draining,  ///< close() requested: queued chunks flush through, no new pushes
  Closed,    ///< flushed; release() hands the Session back
  Faulted,   ///< quarantined: error captured, queue dropped, pushes refused
};

[[nodiscard]] const char* to_string(SessionState s) noexcept;

/// Outcome of an ingest attempt.
enum class PushResult {
  Ok,
  QueueFull,      ///< try_push only: bounded queue at capacity, chunk not taken
  Closed,         ///< session closed/closing: chunk refused
  Faulted,        ///< session quarantined: chunk refused
  NoSuchSession,  ///< unknown or stale id
};

[[nodiscard]] const char* to_string(PushResult r) noexcept;

/// Outcome of a non-blocking control start (close_start / reset_start).
enum class StartResult {
  Done,           ///< completed inside the call: no notification follows
  Pending,        ///< a worker completes it, then fires Options::notify
  NoSuchSession,  ///< unknown or stale id
};

/// Opaque session address: slot index + provisioning generation. The shard
/// a session lives on is a pure function of the id (consistent hash), so no
/// routing table is consulted on the ingest path.
struct SessionId {
  std::size_t slot = static_cast<std::size_t>(-1);
  u64 generation = 0;

  friend constexpr bool operator==(const SessionId&, const SessionId&) = default;
};

class StreamServer;

/// A chunk buffer on loan from a session's ring: the zero-copy ingest
/// handle. Fill data() in place, then StreamServer::commit() it. Destroying
/// an uncommitted loan returns the buffer and frees its reserved queue slot
/// (the abandon path). Move-only; must not outlive its server.
class ChunkLoan {
 public:
  ChunkLoan() = default;
  ChunkLoan(ChunkLoan&& other) noexcept { *this = std::move(other); }
  ChunkLoan& operator=(ChunkLoan&& other) noexcept;
  ~ChunkLoan();

  ChunkLoan(const ChunkLoan&) = delete;
  ChunkLoan& operator=(const ChunkLoan&) = delete;

  /// True between a successful acquire and commit/destruction.
  [[nodiscard]] bool valid() const noexcept { return server_ != nullptr; }

  /// The writable sample region (exactly the acquire()d length).
  [[nodiscard]] std::span<i32> data() noexcept { return buf_; }

  [[nodiscard]] SessionId id() const noexcept { return id_; }

 private:
  friend class StreamServer;
  StreamServer* server_ = nullptr;
  SessionId id_{};
  u64 epoch_ = 0;  ///< the slot's reset epoch at acquire time (stale loans die)
  std::vector<i32> buf_;
};

/// A long-running multi-session streaming server. See the file comment for
/// the sharding / ingest / lifecycle / backpressure / isolation semantics.
class StreamServer {
 public:
  struct Options {
    /// Hard ceiling on concurrently provisioned slots across all shards;
    /// open() beyond it throws std::runtime_error (admission control
    /// belongs to the caller).
    std::size_t max_sessions = 64;

    /// Per-session bound on accepted-but-unprocessed chunks: the high-water
    /// mark. Outstanding loans and the batch a worker is currently
    /// processing both count toward it, so the bound is exact — memory and
    /// worst-case ingest latency can be sized off it. try_push returns
    /// QueueFull at capacity; push blocks until processing frees space.
    std::size_t queue_capacity_chunks = 32;

    /// Protocol bound on one chunk, in samples (0 = unlimited). An oversize
    /// chunk is a malformed stream: the session faults (it is not a
    /// transient overload, so it is not a QueueFull).
    std::size_t max_chunk_samples = 0;

    /// Worker threads draining session queues, in total across shards
    /// (0 = hardware concurrency). Every shard runs at least one worker, so
    /// the effective total is max(workers, shards).
    unsigned workers = 0;

    /// Independent slot groups, each with its own lock, ready list and
    /// workers (0 = auto: one shard per worker, capped at 8). Sessions hash
    /// onto shards by id; results are bit-identical for any shard count.
    unsigned shards = 0;

    /// Per-session bound on the pull-egress event queue (0 is refused).
    /// When a drain_events() consumer lags by more than this many events,
    /// or no consumer drains at all, the oldest undrained ones are dropped
    /// and counted in SessionStats::events_dropped.
    std::size_t event_queue_capacity = 1024;

    /// Completion notification (unset = none). Names a session that has
    /// something for its consumer: its egress queue went from empty to
    /// non-empty, it landed Closed or Faulted (on a worker, or on an ingest
    /// call that faulted it), or a reset_start() that returned Pending
    /// completed. A worker fires it at most once per batch. It is always
    /// called outside every shard lock — it may call back into the server —
    /// and never for a completion the caller already learns from a return
    /// value (close()/reset() returning, a start returning Done). It runs on
    /// worker and producer threads, so it must be thread-safe and short.
    /// Unset, the workers pay nothing for it.
    std::function<void(SessionId)> notify{};
  };

  /// Per-session live statistics (a consistent snapshot; cumulative over the
  /// slot's provisioning generation — see the accounting contract above).
  struct SessionStats {
    SessionState state = SessionState::Empty;
    u64 chunks_in = 0;         ///< chunks accepted into the queue
    u64 chunks_processed = 0;  ///< chunks pushed through the Session
    u64 rejected_chunks = 0;   ///< ingest refusals: try_push QueueFull + protocol violations
    u64 dropped_chunks = 0;    ///< accepted chunks discarded on fault/reset
    /// Current queue depth — excluding loans in producer hands and the batch
    /// a worker is processing right now (those count toward the capacity
    /// bound but surface in chunks_processed once done).
    u64 queued_chunks = 0;
    u64 queued_samples = 0;
    u64 peak_queued_chunks = 0;///< deepest queue this provisioning has seen
    u64 resets = 0;            ///< reset() count this provisioning
    u64 samples = 0;           ///< samples processed
    u64 events = 0;            ///< detector decisions delivered
    u64 beats = 0;             ///< accepted QRS events
    u64 events_queued = 0;     ///< pull-egress events awaiting drain_events()
    u64 events_dropped = 0;    ///< egress events lost to the bound (or reset)
    std::string error;         ///< why the session faulted (empty otherwise)
  };

  /// Aggregate live statistics across the server's lifetime. Totals are a
  /// sum of per-shard snapshots taken in sequence (each internally
  /// consistent).
  struct ServerStats {
    u64 open = 0;      ///< slots currently Open or Draining
    u64 closed = 0;    ///< slots currently Closed (awaiting release)
    u64 faulted = 0;   ///< slots currently quarantined
    /// Lifetime open() count. Counts admissions, not completions:
    /// an open() that passed admission but then failed slot allocation
    /// (OOM) is included — the value is the generation counter, which must
    /// never run backwards or stale ids could alias a later session.
    u64 sessions_opened = 0;
    u64 sessions_released = 0; ///< lifetime release() count
    u64 chunks_processed = 0;
    u64 rejected_chunks = 0;
    u64 dropped_chunks = 0;
    u64 queued_chunks = 0;     ///< current total queue depth
    u64 peak_queued_chunks = 0;///< highest single-session depth ever observed
    u64 samples = 0;
    u64 events = 0;
    u64 beats = 0;
    u64 events_dropped = 0;
  };

  StreamServer();  ///< default Options (a nested-class NSDMI cannot be a default argument)
  explicit StreamServer(Options opts);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Provision a slot with a fresh Session built from \p spec. Reuses a
  /// released slot when one exists; throws std::runtime_error at the
  /// max_sessions ceiling and propagates Session construction failures
  /// (e.g. invalid DetectorParams) without consuming a slot.
  SessionId open(SessionSpec spec);

  /// Borrow a chunk buffer of \p n_samples from the session's ring, blocking
  /// while the queue (plus outstanding loans) sits at the high-water mark.
  /// Ok grants the loan; any other result means no loan was made (session
  /// closed/faulted/released while waiting, or \p n_samples violates
  /// max_chunk_samples — which faults the session, exactly like an oversize
  /// push).
  PushResult acquire_buffer(SessionId id, std::size_t n_samples, ChunkLoan& out);

  /// Non-blocking acquire: QueueFull at the high-water mark (counted in
  /// rejected_chunks), otherwise as acquire_buffer.
  PushResult try_acquire_buffer(SessionId id, std::size_t n_samples, ChunkLoan& out);

  /// Hand a filled loan to the server: the buffer enters the session's queue
  /// without being copied. \p n_samples trims the committed length (npos =
  /// everything acquired; more than acquired throws std::invalid_argument).
  /// The loan is consumed either way; on refusal (the session closed,
  /// faulted, was released — or was reset() since the acquire, in which case
  /// the loan belongs to the abandoned episode and commits as Closed rather
  /// than leaking stale samples into the fresh record) the samples are
  /// discarded and the buffer recycled.
  PushResult commit(ChunkLoan& loan, std::size_t n_samples = static_cast<std::size_t>(-1));

  /// Non-blocking copying ingest: acquire + memcpy + commit in one call.
  /// Refuses with QueueFull at the high-water mark (counted in
  /// rejected_chunks). Allocation-free in steady state (ring buffers).
  PushResult try_push(SessionId id, std::span<const i32> chunk);

  /// Blocking copying ingest: waits for queue space while the session stays
  /// Open. Returns the refusal reason instead if the session closes, faults
  /// or is released while waiting — including while already blocked.
  PushResult push(SessionId id, std::span<const i32> chunk);

  /// Drain the session's pull-egress queue: appends every undrained
  /// finalized event to \p out in delivery order and returns how many were
  /// appended. Non-blocking; safe from any thread, though a single consumer
  /// per session is the intended shape. Works on Closed/Faulted sessions too
  /// (the tail of a drained record stays drainable until reset()/release()).
  /// 0 for a stale id.
  std::size_t drain_events(SessionId id, std::vector<Event>& out);

  /// Graceful end-of-stream: stops admitting pushes, lets the queue drain,
  /// flushes the session, and waits for that to finish. Returns the final
  /// state (Closed, or Faulted if the tail faulted; Empty for a stale id).
  /// Safe to call twice. Wakes any producer blocked in push()/acquire_buffer.
  /// A reset() racing this call may re-arm the slot the instant the drain
  /// lands; close() still returns the state that drain reached (it observes
  /// the completion itself, not just the slot's current state).
  SessionState close(SessionId id);

  /// The non-blocking half of close(): stops admitting pushes and hands the
  /// slot to a worker to drain and flush. Pending while that flush is
  /// outstanding (Options::notify fires when it lands; SessionStats::state
  /// then reads Closed or Faulted), Done when the session was already
  /// Closed or Faulted.
  StartResult close_start(SessionId id);

  /// Re-arm a slot mid-flight for a fresh record: drops whatever is queued
  /// (counted in dropped_chunks) and any undrained egress events (counted in
  /// events_dropped), waits out in-flight work, resets the Session (stage
  /// carry-overs, detector, counters) and returns the slot to Open —
  /// including from Faulted (quarantine release) and Closed (slot reuse
  /// without re-provisioning). \p warm optionally carries the detector's
  /// trained thresholds across the reset (the reconnect warm start).
  /// Outstanding loans go stale: they commit as Closed instead of leaking
  /// the abandoned episode's samples into the fresh record. False for a
  /// stale id. Other sessions stream on, undisturbed, the whole time.
  bool reset(SessionId id, pantompkins::WarmStart warm = pantompkins::WarmStart::Cold);

  /// The non-blocking half of reset(). The queue is dropped and outstanding
  /// loans go stale at once; chunks committed after the call belong to the
  /// fresh record. Done when the slot was quiescent and re-armed inside the
  /// call. Pending while a worker holds the slot (it re-arms once its batch
  /// lands, then processes the fresh chunks) or a close is in flight (that
  /// record flushes first; pushes stay refused until the re-arm). Pending
  /// starts that overlap re-arm once, with the same result as applying them
  /// in turn; SessionStats::resets advances at the re-arm, after which
  /// Options::notify fires.
  StartResult reset_start(SessionId id, pantompkins::WarmStart warm = pantompkins::WarmStart::Cold);

  /// Retire a slot and hand its quiescent Session back (closing it first if
  /// still streaming). The slot returns to Empty and becomes reusable by the
  /// next open(); the id goes stale. Null for a stale id.
  std::unique_ptr<Session> release(SessionId id);

  /// Pause/resume every shard's workers (a maintenance gate: ingest keeps
  /// accepting until queues hit the high-water mark, nothing is processed
  /// while paused). Used by tests to make backpressure deterministic.
  void pause();
  void resume();

  [[nodiscard]] SessionStats session_stats(SessionId id) const;
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] unsigned workers() const noexcept { return n_workers_; }
  [[nodiscard]] unsigned shards() const noexcept { return n_shards_; }

 private:
  friend class ChunkLoan;

  /// Reset starts a worker still has to apply; overlapping starts merge.
  struct PendingReset {
    u64 epoch = 0;   ///< reset_epoch of the latest merged start (0 = none)
    u64 starts = 0;  ///< merged starts, all counted in resets at the re-arm
    pantompkins::WarmStart warm = pantompkins::WarmStart::KeepThresholds;
  };

  struct Slot {
    std::unique_ptr<Session> session;
    SessionState state = SessionState::Empty;
    u64 generation = 0;
    std::deque<std::vector<i32>> queue;
    u64 queued_samples = 0;
    BufferRing<std::vector<i32>> ring;  ///< recycled chunk buffers (kept across tenants)
    std::size_t loaned = 0;    ///< buffers in producer hands (reserve queue slots)
    std::size_t inflight = 0;  ///< chunks in a worker's batch (still hold queue slots)
    bool busy = false;         ///< a worker is draining this slot right now
    bool enqueued = false;     ///< slot is in the shard's ready list
    u64 final_seq = 0;         ///< bumped whenever a drain lands Closed/Faulted
    SessionState final_state = SessionState::Empty;  ///< what that landing was
    u64 chunks_in = 0;
    u64 chunks_processed = 0;
    u64 rejected_chunks = 0;
    u64 dropped_chunks = 0;
    u64 peak_queued = 0;
    u64 resets = 0;
    u64 reset_epoch = 0;        ///< bumped by every reset start: outstanding loans go stale
    u64 rearmed_epoch = 0;      ///< reset_epoch of the last re-arm (reset() waits on it)
    PendingReset reset_next;    ///< re-arms when the in-flight batch lands
    PendingReset reset_landed;  ///< re-arms when the in-flight close lands
    u64 samples = 0;
    u64 events = 0;
    u64 beats = 0;
    std::deque<Event> egress;  ///< pull-model event queue (bounded)
    u64 events_dropped = 0;
    std::string error;
  };

  /// One independent slot group: its own lock, cvs, ready list and workers.
  /// `mu` has rank kShard. Options::notify (the front door's hook takes its
  /// net-conn lock) fires after it is dropped. No table cache is touched
  /// under it: tables are built by warm_pipeline_tables in open(), before it
  /// takes a shard lock, or by a kernel's first call on a worker, which runs
  /// Session::push/flush with the shard lock dropped.
  ///
  /// Slot *contents* are guarded by `mu` too, but `GUARDED_BY` cannot name a
  /// mutex living in a different struct — the `XBS_REQUIRES(sh.mu)` on every
  /// slot-touching helper below carries that half of the contract instead.
  struct Shard {
    mutable common::Mutex mu{common::LockRank::kShard};
    common::CondVar work_cv;    ///< workers: ready list / stop / resume
    common::CondVar space_cv;   ///< blocking acquire: queue space / state change
    common::CondVar state_cv;   ///< close/reset/release: state changes
    unsigned index = 0;         ///< position in shards_ (ctor-only)
    std::vector<Slot> slots XBS_GUARDED_BY(mu);
    /// Local slot indices with runnable work, in the order they became
    /// runnable; workers pop the front.
    std::deque<std::size_t> ready XBS_GUARDED_BY(mu);
    bool stop XBS_GUARDED_BY(mu) = false;
    bool paused XBS_GUARDED_BY(mu) = false;
    int space_waiters XBS_GUARDED_BY(mu) = 0;   ///< gates space_cv notifies off the hot path
    /// Currently provisioned (non-Empty) slots on this shard: the
    /// least-loaded placement signal read lock-free at open(). A hint, not
    /// an invariant — a stale read just places one session suboptimally.
    std::atomic<u32> live{0};
    // Totals carried past release(), so ServerStats survives churn.
    u64 retired_chunks_processed XBS_GUARDED_BY(mu) = 0;
    u64 retired_rejected_chunks XBS_GUARDED_BY(mu) = 0;
    u64 retired_dropped_chunks XBS_GUARDED_BY(mu) = 0;
    u64 retired_samples XBS_GUARDED_BY(mu) = 0;
    u64 retired_events XBS_GUARDED_BY(mu) = 0;
    u64 retired_beats XBS_GUARDED_BY(mu) = 0;
    u64 retired_events_dropped XBS_GUARDED_BY(mu) = 0;
    u64 peak_queued XBS_GUARDED_BY(mu) = 0;  ///< shard-lifetime peak (incl. retired slots)
    std::vector<std::thread> threads;  ///< ctor/dtor only: never touched by other threads
  };

  // Id <-> shard routing: shard = slot % n_shards, local index = slot / n_shards.
  [[nodiscard]] Shard& shard_of(SessionId id) const noexcept {
    return *shards_[id.slot % n_shards_];
  }
  [[nodiscard]] std::size_t local_index(SessionId id) const noexcept {
    return id.slot / n_shards_;
  }

  // Helpers taking a Shard expect (and statically require) its mu held;
  // provision/acquire_impl/cancel_loan lock the shard themselves.
  Slot* find(Shard& sh, SessionId id) XBS_REQUIRES(sh.mu);
  const Slot* find(Shard& sh, SessionId id) const XBS_REQUIRES(sh.mu);
  SessionId provision(std::unique_ptr<Session> session);
  PushResult refuse_reason(const Slot& s) const;  // reads one Slot: caller holds its shard's mu
  void enqueue_ready(Shard& sh, std::size_t local) XBS_REQUIRES(sh.mu);
  void drop_queue(Shard& sh, Slot& s) XBS_REQUIRES(sh.mu);
  void fault(Shard& sh, Slot& s, std::string why) XBS_REQUIRES(sh.mu);
  void append_egress(Shard& sh, Slot& s, std::vector<Event>& evs) XBS_REQUIRES(sh.mu);
  void begin_close(Shard& sh, Slot& s, std::size_t local) XBS_REQUIRES(sh.mu);
  /// True when the slot re-armed inside the call; false when a worker will.
  bool begin_reset(Shard& sh, Slot& s, pantompkins::WarmStart warm) XBS_REQUIRES(sh.mu);
  void rearm(Shard& sh, Slot& s, const PendingReset& r) XBS_REQUIRES(sh.mu);
  PushResult acquire_impl(SessionId id, std::size_t n_samples, ChunkLoan& out, bool blocking);
  void cancel_loan(SessionId id, std::vector<i32>&& buf) noexcept;
  void worker_loop(Shard& sh);
  /// Held on entry and exit; unlocks around Session work via `lock` (the
  /// relockable-scope pattern the static analysis cannot follow — the
  /// definition opts out and re-asserts the capability at runtime instead).
  void drain_slot(Shard& sh, common::MutexLock& lock, std::size_t local) XBS_REQUIRES(sh.mu);

  Options opts_;
  unsigned n_workers_ = 0;
  unsigned n_shards_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cross-shard coordination stays lock-free: the generation counter keeps
  // ids unique across shards (the chosen shard is encoded in the slot index),
  // the provisioned count enforces max_sessions.
  std::atomic<u64> sessions_opened_{0};
  std::atomic<u64> sessions_released_{0};
  std::atomic<std::size_t> provisioned_{0};
};

}  // namespace xbs::stream
