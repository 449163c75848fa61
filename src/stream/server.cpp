#include "xbs/stream/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::stream {

const char* to_string(SessionState s) noexcept {
  switch (s) {
    case SessionState::Empty: return "Empty";
    case SessionState::Open: return "Open";
    case SessionState::Draining: return "Draining";
    case SessionState::Closed: return "Closed";
    case SessionState::Faulted: return "Faulted";
  }
  return "?";
}

const char* to_string(PushResult r) noexcept {
  switch (r) {
    case PushResult::Ok: return "Ok";
    case PushResult::QueueFull: return "QueueFull";
    case PushResult::Closed: return "Closed";
    case PushResult::Faulted: return "Faulted";
    case PushResult::NoSuchSession: return "NoSuchSession";
  }
  return "?";
}

// ------------------------------------------------------------------ ChunkLoan

ChunkLoan& ChunkLoan::operator=(ChunkLoan&& other) noexcept {
  if (this != &other) {
    if (server_ != nullptr) server_->cancel_loan(id_, std::move(buf_));
    server_ = other.server_;
    id_ = other.id_;
    epoch_ = other.epoch_;
    buf_ = std::move(other.buf_);
    other.server_ = nullptr;
  }
  return *this;
}

ChunkLoan::~ChunkLoan() {
  if (server_ != nullptr) server_->cancel_loan(id_, std::move(buf_));
}

// ---------------------------------------------------------------- StreamServer

StreamServer::StreamServer() : StreamServer(Options{}) {}

StreamServer::StreamServer(Options opts) : opts_(opts) {
  if (opts_.max_sessions == 0) {
    throw std::invalid_argument("StreamServer: max_sessions == 0");
  }
  if (opts_.queue_capacity_chunks == 0) {
    throw std::invalid_argument("StreamServer: queue_capacity_chunks == 0");
  }
  if (opts_.event_queue_capacity == 0) {
    throw std::invalid_argument("StreamServer: event_queue_capacity == 0");
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  n_workers_ = opts_.workers == 0 ? hw : opts_.workers;
  n_shards_ = opts_.shards == 0 ? std::min<unsigned>(n_workers_, 8) : opts_.shards;
  if (n_shards_ == 0) n_shards_ = 1;
  shards_.reserve(n_shards_);
  for (unsigned i = 0; i < n_shards_; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = i;
  }
  // Spread the worker budget; every shard gets at least one (a worker-less
  // shard would never drain), so the spawned total can exceed the request.
  unsigned spawned = 0;
  for (unsigned i = 0; i < n_shards_; ++i) {
    unsigned k = n_workers_ / n_shards_ + (i < n_workers_ % n_shards_ ? 1u : 0u);
    if (k == 0) k = 1;
    Shard& sh = *shards_[i];
    sh.threads.reserve(k);
    for (unsigned t = 0; t < k; ++t) {
      sh.threads.emplace_back([this, &sh] { worker_loop(sh); });
    }
    spawned += k;
  }
  n_workers_ = spawned;
}

StreamServer::~StreamServer() {
  for (auto& shp : shards_) {
    {
      const common::MutexLock lock(shp->mu);
      shp->stop = true;
    }
    shp->work_cv.notify_all();
    shp->space_cv.notify_all();
    shp->state_cv.notify_all();
  }
  for (auto& shp : shards_) {
    for (std::thread& t : shp->threads) t.join();
  }
}

// ------------------------------------------------- shard-mu_-held helpers

StreamServer::Slot* StreamServer::find(Shard& sh, SessionId id) {
  const std::size_t li = local_index(id);  // a stale/garbage slot lands out of range
  if (li >= sh.slots.size()) return nullptr;
  Slot& s = sh.slots[li];
  if (s.state == SessionState::Empty || s.generation != id.generation) return nullptr;
  return &s;
}

const StreamServer::Slot* StreamServer::find(Shard& sh, SessionId id) const {
  return const_cast<StreamServer*>(this)->find(sh, id);
}

SessionId StreamServer::provision(std::unique_ptr<Session> session) {
  // Admission against the global ceiling stays lock-free across shards: the
  // reservation is taken (and on failure returned) before any shard lock.
  if (provisioned_.fetch_add(1, std::memory_order_relaxed) >= opts_.max_sessions) {
    provisioned_.fetch_sub(1, std::memory_order_relaxed);
    throw std::runtime_error("StreamServer: session limit reached (max_sessions)");
  }
  // The generation is globally monotonic; it keeps ids unique, while the
  // chosen shard is encoded in the slot index, so placement is free policy.
  const u64 g = sessions_opened_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Least-loaded placement hint (carried ROADMAP item): put the session on
  // the shard with the fewest provisioned slots, so one hot shard cannot
  // fill while others idle. The counts are read lock-free — a stale read
  // costs one suboptimal placement, never correctness. Ties keep the old
  // round-robin spread (start the scan's incumbent at g % shards).
  auto si = static_cast<std::size_t>(g % n_shards_);
  u32 best = shards_[si]->live.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < n_shards_; ++k) {
    const u32 l = shards_[k]->live.load(std::memory_order_relaxed);
    if (l < best) {
      best = l;
      si = k;
    }
  }
  Shard& sh = *shards_[si];
  const common::MutexLock lock(sh.mu);
  std::size_t li = sh.slots.size();
  for (std::size_t i = 0; i < sh.slots.size(); ++i) {
    if (sh.slots[i].state == SessionState::Empty) {
      li = i;
      break;
    }
  }
  if (li == sh.slots.size()) {
    try {
      sh.slots.emplace_back();
    } catch (...) {
      // Hand the admission reservation back, or a failed open under memory
      // pressure would permanently shrink max_sessions.
      provisioned_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
  }
  Slot& s = sh.slots[li];
  s.session = std::move(session);
  s.state = SessionState::Open;
  s.generation = g;
  s.queue.clear();
  s.queued_samples = 0;
  s.ring.set_capacity(opts_.queue_capacity_chunks);  // buffers survive tenants
  s.loaned = 0;
  s.inflight = 0;
  s.busy = false;
  s.enqueued = false;
  s.final_seq = 0;
  s.final_state = SessionState::Empty;
  s.chunks_in = 0;
  s.chunks_processed = 0;
  s.rejected_chunks = 0;
  s.dropped_chunks = 0;
  s.peak_queued = 0;
  s.resets = 0;
  s.reset_epoch = 0;  // stale cross-tenant loans already die on the generation check
  s.rearmed_epoch = 0;
  s.reset_next = {};
  s.reset_landed = {};
  s.samples = 0;
  s.events = 0;
  s.beats = 0;
  s.egress.clear();
  s.events_dropped = 0;
  s.error.clear();
  sh.live.fetch_add(1, std::memory_order_relaxed);
  return SessionId{li * n_shards_ + si, g};
}

PushResult StreamServer::refuse_reason(const Slot& s) const {
  switch (s.state) {
    case SessionState::Open: return PushResult::Ok;
    case SessionState::Draining:
    case SessionState::Closed: return PushResult::Closed;
    case SessionState::Faulted: return PushResult::Faulted;
    case SessionState::Empty: return PushResult::NoSuchSession;
  }
  return PushResult::NoSuchSession;
}

void StreamServer::enqueue_ready(Shard& sh, std::size_t local) {
  Slot& s = sh.slots[local];
  if (s.enqueued || s.busy) return;
  s.enqueued = true;
  sh.ready.push_back(local);
  sh.work_cv.notify_one();
}

void StreamServer::drop_queue(Shard& sh, Slot& s) {
  s.dropped_chunks += s.queue.size();
  while (!s.queue.empty()) {
    (void)s.ring.put(std::move(s.queue.front()));
    s.queue.pop_front();
  }
  s.queued_samples = 0;
  if (sh.space_waiters > 0) sh.space_cv.notify_all();
}

void StreamServer::fault(Shard& sh, Slot& s, std::string why) {
  s.state = SessionState::Faulted;
  s.error = std::move(why);
  // Record the terminal landing as an edge: a close()/release() waiter must
  // observe it even if a racing reset() re-arms the slot before they wake.
  ++s.final_seq;
  s.final_state = SessionState::Faulted;
  drop_queue(sh, s);  // also wakes blocked producers: they surface Faulted
  sh.state_cv.notify_all();
}

void StreamServer::append_egress([[maybe_unused]] Shard& sh, Slot& s, std::vector<Event>& evs) {
  if (evs.empty()) return;
  for (Event& e : evs) s.egress.push_back(std::move(e));
  while (s.egress.size() > opts_.event_queue_capacity) {
    s.egress.pop_front();  // the consumer lags: shed oldest-first, keep counting
    ++s.events_dropped;
  }
  evs.clear();
}

void StreamServer::begin_close(Shard& sh, Slot& s, std::size_t local) {
  if (s.state != SessionState::Open) return;
  s.state = SessionState::Draining;
  enqueue_ready(sh, local);  // even on an empty queue: a worker flushes
  // Producers blocked at the high-water mark must not wait out the drain:
  // wake them now so they surface Closed immediately.
  if (sh.space_waiters > 0) sh.space_cv.notify_all();
}

bool StreamServer::begin_reset(Shard& sh, Slot& s, pantompkins::WarmStart warm) {
  ++s.reset_epoch;  // outstanding loans now commit as Closed, not into the fresh record
  // Overlapping starts merge into one re-arm. Applying them in turn would
  // leave cold thresholds if any of them was cold (a warm reset of a cold
  // detector keeps nothing), and nothing runs between them: each start
  // drops the queue.
  auto merge = [&](PendingReset& p) {
    const bool keep = warm == pantompkins::WarmStart::KeepThresholds &&
                      (p.starts == 0 || p.warm == pantompkins::WarmStart::KeepThresholds);
    p.warm = keep ? pantompkins::WarmStart::KeepThresholds : pantompkins::WarmStart::Cold;
    p.epoch = s.reset_epoch;
    ++p.starts;
  };
  if (s.state == SessionState::Draining) {
    // A close is in flight: its record flushes whole first (its waiters
    // observe that landing), then the worker re-arms the slot.
    merge(s.reset_landed);
    return false;
  }
  drop_queue(sh, s);
  if (s.busy) {
    merge(s.reset_next);  // the in-flight batch belongs to the abandoned episode
    return false;
  }
  PendingReset now;
  merge(now);
  rearm(sh, s, now);  // quiescent: no worker owns the slot, the queue is empty
  return true;
}

void StreamServer::rearm(Shard& sh, Slot& s, const PendingReset& r) {
  s.session->reset(r.warm);
  s.events_dropped += s.egress.size();  // the old episode's undrained tail
  s.egress.clear();
  s.resets += r.starts;
  s.rearmed_epoch = r.epoch;
  // A close requested after the reset started closes the fresh record.
  if (s.state != SessionState::Draining) s.state = SessionState::Open;
  s.error.clear();
  sh.state_cv.notify_all();
  if (sh.space_waiters > 0) sh.space_cv.notify_all();
}

// ------------------------------------------------------------------- workers

void StreamServer::worker_loop(Shard& sh) {
  common::MutexLock lock(sh.mu);
  while (true) {
    // Explicit wait loop (not a predicate lambda): the guarded reads stay in
    // this annotated function, where the analysis can see the lock is held.
    while (!sh.stop && (sh.paused || sh.ready.empty())) sh.work_cv.wait(lock);
    if (sh.stop) return;
    // FIFO: a session that yielded mid-backlog re-enters at the back, behind
    // every session that has been waiting — so service round-robins under
    // contention.
    const std::size_t li = sh.ready.front();
    sh.ready.pop_front();
    sh.slots[li].enqueued = false;
    drain_slot(sh, lock, li);
  }
}

// Opted out of the static analysis: the relock-through-a-reference pattern
// (`lock` unlocks around Session work, relocks to publish) is beyond what
// clang can track for a scoped capability passed by reference. The REQUIRES
// on the declaration still checks every call site, and assert_held() keeps
// the entry contract checked at runtime in Debug.
void StreamServer::drain_slot(Shard& sh, common::MutexLock& lock,
                              std::size_t local) XBS_NO_THREAD_SAFETY_ANALYSIS {
  sh.mu.assert_held();
  sh.slots[local].busy = true;
  // The whole queue is popped as one batch, processed unlocked, and the
  // buffers recycled in bulk: lock traffic and producer wakeups amortize
  // over the batch instead of ping-ponging per chunk (the single-core drive
  // regression), and a blocked producer wakes once to refill a whole queue.
  std::vector<std::vector<i32>> batch;
  std::vector<Event> evbuf;
  // Options::notify is raised while publishing under the lock and fired
  // right after the next unlock, so it runs outside the shard lock at most
  // once per batch; with no hook set nothing here costs a thing.
  const bool hook = static_cast<bool>(opts_.notify);
  const SessionId self{local * n_shards_ + sh.index, sh.slots[local].generation};
  bool notify = false;
  auto fire = [&] {
    if (notify) {
      notify = false;
      opts_.notify(self);
    }
  };
  bool requeue = false;
  while (true) {
    Slot& s = sh.slots[local];  // re-fetch: slots may have grown while unlocked
    if (sh.stop || sh.paused) {
      // Hand the remainder back to the ready list so resume() (or another
      // worker) picks it up; nothing is lost.
      requeue = s.state == SessionState::Open || s.state == SessionState::Draining;
      break;
    }
    if (s.state != SessionState::Open && s.state != SessionState::Draining) break;
    if (s.queue.empty()) {
      if (s.state != SessionState::Draining) break;
      // close() requested and the queue is dry: flush outside the lock.
      Session* sess = s.session.get();
      lock.unlock();
      fire();
      std::string err;
      u64 events = 0, beats = 0;
      evbuf.clear();
      try {
        for (const Event& ev : sess->flush()) {
          ++events;
          beats += ev.is_beat() ? 1 : 0;
          evbuf.push_back(ev);
        }
      } catch (const std::exception& e) {
        err = e.what();
      } catch (...) {
        err = "unknown exception during flush";
      }
      lock.lock();
      Slot& sl = sh.slots[local];
      sl.events += events;
      sl.beats += beats;
      append_egress(sh, sl, evbuf);
      if (!err.empty()) {
        fault(sh, sl, std::move(err));
      } else {
        sl.state = SessionState::Closed;
        ++sl.final_seq;  // the edge a racing reset() cannot erase
        sl.final_state = SessionState::Closed;
        sh.state_cv.notify_all();
        if (sh.space_waiters > 0) sh.space_cv.notify_all();
      }
      if (sl.reset_landed.epoch != 0) {
        rearm(sh, sl, sl.reset_landed);
        sl.reset_landed = {};
      }
      notify = hook;
      break;
    }
    batch.clear();
    // The popped batch still counts toward queue_capacity_chunks (inflight):
    // the documented bound on accepted-but-unprocessed chunks stays exact,
    // and producers wake once per *completed* batch, not per popped chunk.
    // Capping the batch at half the capacity leaves producers refill room
    // while the batch processes, so ingest and processing still pipeline.
    const std::size_t max_batch = std::max<std::size_t>(1, opts_.queue_capacity_chunks / 2);
    while (!s.queue.empty() && batch.size() < max_batch) {
      s.queued_samples -= s.queue.front().size();
      batch.push_back(std::move(s.queue.front()));
      s.queue.pop_front();
    }
    s.inflight = batch.size();
    Session* sess = s.session.get();
    lock.unlock();
    fire();
    std::string err;
    u64 events = 0, beats = 0, samples = 0;
    std::size_t done = 0;
    evbuf.clear();
    for (; done < batch.size(); ++done) {
      try {
        for (const Event& ev : sess->push(batch[done])) {
          ++events;
          beats += ev.is_beat() ? 1 : 0;
          evbuf.push_back(ev);
        }
      } catch (const std::exception& e) {
        err = e.what();
        break;
      } catch (...) {
        err = "unknown exception during push";
        break;
      }
      samples += batch[done].size();
    }
    const std::size_t not_processed = batch.size() - done;
    lock.lock();
    Slot& sl = sh.slots[local];
    for (std::vector<i32>& b : batch) (void)sl.ring.put(std::move(b));
    batch.clear();
    sl.inflight = 0;
    if (sh.space_waiters > 0) sh.space_cv.notify_all();
    sl.chunks_processed += done;
    sl.samples += samples;
    sl.events += events;
    sl.beats += beats;
    const bool was_empty = sl.egress.empty();
    append_egress(sh, sl, evbuf);
    // The chunk that threw (and anything behind it in the batch) was
    // accepted but never fully processed: dropped, so the ledger closes.
    if (!err.empty()) sl.dropped_chunks += not_processed;
    bool landed = false;
    if (sl.reset_next.epoch != 0) {
      // A reset started while this batch ran: the batch belonged to the
      // abandoned episode (its events and any error die with it), and the
      // chunks queued behind it are the fresh record's.
      rearm(sh, sl, sl.reset_next);
      sl.reset_next = {};
      landed = true;
    } else if (!err.empty()) {
      fault(sh, sl, std::move(err));
      if (sl.reset_landed.epoch != 0) {
        rearm(sh, sl, sl.reset_landed);
        sl.reset_landed = {};
      }
      landed = true;
    }
    if (hook && (landed || (was_empty && !sl.egress.empty()))) notify = true;
    if (sl.state != SessionState::Open && sl.state != SessionState::Draining) break;
    // Fairness yield: a deep session must not hold this worker for its whole
    // backlog while other sessions wait. If anyone else is ready, hand the
    // remainder back (at the back: behind every current waiter) and return
    // to the pop loop instead of taking another batch.
    if (!sh.ready.empty() && !sl.queue.empty()) {
      requeue = true;
      break;
    }
  }
  sh.slots[local].busy = false;
  if (requeue) enqueue_ready(sh, local);
  sh.state_cv.notify_all();
  if (notify) {
    lock.unlock();
    fire();
    lock.lock();
  }
}

// --------------------------------------------------------------- public API

SessionId StreamServer::open(SessionSpec spec) {
  // Session construction (and LUT warming) happens outside any lock: it can
  // cold-build coefficient tables, and open() must not stall the data plane.
  pantompkins::warm_pipeline_tables(spec.config);
  auto session = std::make_unique<Session>(std::move(spec));
  return provision(std::move(session));
}

PushResult StreamServer::acquire_impl(SessionId id, std::size_t n_samples, ChunkLoan& out,
                                      bool blocking) {
  const bool oversize =
      opts_.max_chunk_samples != 0 && n_samples > opts_.max_chunk_samples;
  Shard& sh = shard_of(id);
  std::vector<i32> buf;
  u64 epoch = 0;
  bool faulted = false;
  {
    common::MutexLock lock(sh.mu);
    while (true) {
      if (sh.stop) return PushResult::NoSuchSession;
      Slot* s = find(sh, id);
      if (s == nullptr) return PushResult::NoSuchSession;
      if (s->state != SessionState::Open) return refuse_reason(*s);
      if (oversize) {
        ++s->rejected_chunks;  // the offending chunk: refused, never queued
        fault(sh, *s,
              "protocol violation: chunk of " + std::to_string(n_samples) +
                  " samples exceeds max_chunk_samples = " +
                  std::to_string(opts_.max_chunk_samples));
        faulted = true;
        break;
      }
      if (s->queue.size() + s->loaned + s->inflight < opts_.queue_capacity_chunks) {
        (void)s->ring.take(buf);  // recycled when available, fresh otherwise
        ++s->loaned;
        epoch = s->reset_epoch;
        break;
      }
      if (!blocking) {
        ++s->rejected_chunks;
        return PushResult::QueueFull;
      }
      ++sh.space_waiters;  // backpressure: high-water mark reached
      sh.space_cv.wait(lock);
      --sh.space_waiters;
    }
  }
  if (faulted) {
    // The producer learns of the fault from the return value; the session's
    // consumer learns of the Faulted landing from the hook.
    if (opts_.notify) opts_.notify(id);
    return PushResult::Faulted;
  }
  // The (possible) allocation and the loan handoff stay off the shard lock.
  // The loan handle is armed *before* the resize: if the resize throws
  // (oversize request with no protocol bound set, transient bad_alloc), the
  // handle's destructor returns the reservation instead of leaking it — a
  // leaked reservation would permanently shrink the session's capacity.
  // The region is *uninitialized* beyond what the producer writes — commit
  // only what you filled.
  ChunkLoan granted;
  granted.server_ = this;
  granted.id_ = id;
  granted.epoch_ = epoch;
  granted.buf_ = std::move(buf);
  granted.buf_.resize(n_samples);
  out = std::move(granted);  // move-assign cancels any loan the caller held in `out`
  return PushResult::Ok;
}

PushResult StreamServer::acquire_buffer(SessionId id, std::size_t n_samples, ChunkLoan& out) {
  return acquire_impl(id, n_samples, out, /*blocking=*/true);
}

PushResult StreamServer::try_acquire_buffer(SessionId id, std::size_t n_samples,
                                            ChunkLoan& out) {
  return acquire_impl(id, n_samples, out, /*blocking=*/false);
}

PushResult StreamServer::commit(ChunkLoan& loan, std::size_t n_samples) {
  constexpr auto kAll = static_cast<std::size_t>(-1);
  if (!loan.valid()) return PushResult::NoSuchSession;
  if (loan.server_ != this) {
    throw std::invalid_argument("StreamServer::commit: loan from a different server");
  }
  if (n_samples != kAll && n_samples > loan.buf_.size()) {
    throw std::invalid_argument("StreamServer::commit: n_samples exceeds the loan");
  }
  const SessionId id = loan.id_;
  std::vector<i32> buf = std::move(loan.buf_);
  loan.server_ = nullptr;  // the loan is consumed from here on
  if (n_samples != kAll) buf.resize(n_samples);

  Shard& sh = shard_of(id);
  const common::MutexLock lock(sh.mu);
  Slot* s = find(sh, id);
  if (s == nullptr) return PushResult::NoSuchSession;  // retired slot: buffer dies
  if (s->loaned > 0) --s->loaned;  // the reservation returns whatever happens next
  if (s->state != SessionState::Open || s->reset_epoch != loan.epoch_) {
    // Closed/faulted since the acquire — or the slot was reset() and this
    // loan belongs to the abandoned episode, whose samples must never leak
    // into the fresh record. Either way the samples are discarded (exactly
    // like a push racing a close) and the buffer is recycled.
    (void)s->ring.put(std::move(buf));
    if (sh.space_waiters > 0) sh.space_cv.notify_all();
    return s->state != SessionState::Open ? refuse_reason(*s) : PushResult::Closed;
  }
  s->queued_samples += buf.size();
  s->queue.push_back(std::move(buf));
  ++s->chunks_in;
  s->peak_queued = std::max<u64>(s->peak_queued, s->queue.size());
  sh.peak_queued = std::max(sh.peak_queued, s->peak_queued);
  enqueue_ready(sh, local_index(id));
  return PushResult::Ok;
}

void StreamServer::cancel_loan(SessionId id, std::vector<i32>&& buf) noexcept {
  Shard& sh = shard_of(id);
  const common::MutexLock lock(sh.mu);
  Slot* s = find(sh, id);
  if (s == nullptr) return;  // slot retired since the acquire: the buffer dies
  if (s->loaned > 0) --s->loaned;
  (void)s->ring.put(std::move(buf));
  if (sh.space_waiters > 0) sh.space_cv.notify_all();
}

PushResult StreamServer::try_push(SessionId id, std::span<const i32> chunk) {
  ChunkLoan loan;
  const PushResult r = try_acquire_buffer(id, chunk.size(), loan);
  if (r != PushResult::Ok) return r;
  std::copy(chunk.begin(), chunk.end(), loan.data().begin());
  return commit(loan);
}

PushResult StreamServer::push(SessionId id, std::span<const i32> chunk) {
  ChunkLoan loan;
  const PushResult r = acquire_buffer(id, chunk.size(), loan);
  if (r != PushResult::Ok) return r;
  std::copy(chunk.begin(), chunk.end(), loan.data().begin());
  return commit(loan);
}

std::size_t StreamServer::drain_events(SessionId id, std::vector<Event>& out) {
  Shard& sh = shard_of(id);
  const common::MutexLock lock(sh.mu);
  Slot* s = find(sh, id);
  if (s == nullptr || s->egress.empty()) return 0;
  const std::size_t n = s->egress.size();
  out.insert(out.end(), std::make_move_iterator(s->egress.begin()),
             std::make_move_iterator(s->egress.end()));
  s->egress.clear();
  return n;
}

SessionState StreamServer::close(SessionId id) {
  Shard& sh = shard_of(id);
  common::MutexLock lock(sh.mu);
  Slot* s = find(sh, id);
  if (s == nullptr) return SessionState::Empty;
  const u64 seq0 = s->final_seq;
  begin_close(sh, *s, local_index(id));
  while (true) {
    if (sh.stop) return SessionState::Empty;
    s = find(sh, id);
    if (s == nullptr) return SessionState::Empty;
    if (s->state == SessionState::Closed || s->state == SessionState::Faulted) {
      return s->state;
    }
    // The drain landed but a racing reset() re-armed the slot before this
    // waiter woke: the recorded edge still says how it landed.
    if (s->final_seq != seq0) return s->final_state;
    sh.state_cv.wait(lock);
  }
}

StartResult StreamServer::close_start(SessionId id) {
  Shard& sh = shard_of(id);
  const common::MutexLock lock(sh.mu);
  Slot* s = find(sh, id);
  if (s == nullptr) return StartResult::NoSuchSession;
  begin_close(sh, *s, local_index(id));
  return s->state == SessionState::Draining ? StartResult::Pending : StartResult::Done;
}

bool StreamServer::reset(SessionId id, pantompkins::WarmStart warm) {
  Shard& sh = shard_of(id);
  common::MutexLock lock(sh.mu);
  if (sh.stop) return false;
  Slot* s = find(sh, id);
  if (s == nullptr) return false;
  if (begin_reset(sh, *s, warm)) return true;
  // Deferred: wait for the worker's re-arm of this start (or a later one
  // merged into it).
  const u64 target = s->reset_epoch;
  while (true) {
    sh.state_cv.wait(lock);
    if (sh.stop) return false;
    s = find(sh, id);
    if (s == nullptr) return false;
    if (s->rearmed_epoch >= target) return true;
  }
}

StartResult StreamServer::reset_start(SessionId id, pantompkins::WarmStart warm) {
  Shard& sh = shard_of(id);
  const common::MutexLock lock(sh.mu);
  if (sh.stop) return StartResult::NoSuchSession;
  Slot* s = find(sh, id);
  if (s == nullptr) return StartResult::NoSuchSession;
  return begin_reset(sh, *s, warm) ? StartResult::Done : StartResult::Pending;
}

std::unique_ptr<Session> StreamServer::release(SessionId id) {
  Shard& sh = shard_of(id);
  common::MutexLock lock(sh.mu);
  while (true) {
    if (sh.stop) return nullptr;
    Slot* s = find(sh, id);
    if (s == nullptr) return nullptr;
    // First iteration, or a racing reset() re-armed the slot while we
    // waited. Retirement is final: (re-)issue the drain so release() always
    // makes progress, and wake blocked producers as in close().
    begin_close(sh, *s, local_index(id));
    if ((s->state == SessionState::Closed || s->state == SessionState::Faulted) &&
        !s->busy) {
      // Undrained egress events die with the slot: counted, as everywhere
      // else, so the events ledger still closes in the retired totals.
      s->events_dropped += s->egress.size();
      sh.retired_chunks_processed += s->chunks_processed;
      sh.retired_rejected_chunks += s->rejected_chunks;
      sh.retired_dropped_chunks += s->dropped_chunks;
      sh.retired_samples += s->samples;
      sh.retired_events += s->events;
      sh.retired_beats += s->beats;
      sh.retired_events_dropped += s->events_dropped;
      std::unique_ptr<Session> out = std::move(s->session);
      s->state = SessionState::Empty;
      s->queue.clear();
      s->queued_samples = 0;
      s->egress.clear();
      s->error.clear();
      // Purge any stale ready-list entry (a fault can leave one behind with
      // no worker ever popping it): the next tenant of this slot must not
      // inherit it, or the deque could hold the index twice and two workers
      // would drain the same Session concurrently.
      if (s->enqueued) {
        s->enqueued = false;
        std::erase(sh.ready, local_index(id));
      }
      // The buffer ring stays: the next tenant starts on warm memory.
      sessions_released_.fetch_add(1, std::memory_order_relaxed);
      provisioned_.fetch_sub(1, std::memory_order_relaxed);
      sh.live.fetch_sub(1, std::memory_order_relaxed);
      sh.state_cv.notify_all();
      if (sh.space_waiters > 0) {
        sh.space_cv.notify_all();  // blocked pushers wake to NoSuchSession
      }
      return out;
    }
    sh.state_cv.wait(lock);
  }
}

void StreamServer::pause() {
  for (auto& shp : shards_) {
    const common::MutexLock lock(shp->mu);
    shp->paused = true;
  }
}

void StreamServer::resume() {
  for (auto& shp : shards_) {
    {
      const common::MutexLock lock(shp->mu);
      shp->paused = false;
    }
    shp->work_cv.notify_all();
  }
}

StreamServer::SessionStats StreamServer::session_stats(SessionId id) const {
  Shard& sh = shard_of(id);
  const common::MutexLock lock(sh.mu);
  SessionStats out;
  const Slot* s = find(sh, id);
  if (s == nullptr) return out;  // state == Empty
  out.state = s->state;
  out.chunks_in = s->chunks_in;
  out.chunks_processed = s->chunks_processed;
  out.rejected_chunks = s->rejected_chunks;
  out.dropped_chunks = s->dropped_chunks;
  out.queued_chunks = s->queue.size();
  out.queued_samples = s->queued_samples;
  out.peak_queued_chunks = s->peak_queued;
  out.resets = s->resets;
  out.samples = s->samples;
  out.events = s->events;
  out.beats = s->beats;
  out.events_queued = s->egress.size();
  out.events_dropped = s->events_dropped;
  out.error = s->error;
  return out;
}

StreamServer::ServerStats StreamServer::stats() const {
  ServerStats out;
  out.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  out.sessions_released = sessions_released_.load(std::memory_order_relaxed);
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    const common::MutexLock lock(sh.mu);
    out.peak_queued_chunks = std::max(out.peak_queued_chunks, sh.peak_queued);
    out.chunks_processed += sh.retired_chunks_processed;
    out.rejected_chunks += sh.retired_rejected_chunks;
    out.dropped_chunks += sh.retired_dropped_chunks;
    out.samples += sh.retired_samples;
    out.events += sh.retired_events;
    out.beats += sh.retired_beats;
    out.events_dropped += sh.retired_events_dropped;
    for (const Slot& s : sh.slots) {
      switch (s.state) {
        case SessionState::Open:
        case SessionState::Draining: ++out.open; break;
        case SessionState::Closed: ++out.closed; break;
        case SessionState::Faulted: ++out.faulted; break;
        case SessionState::Empty: continue;
      }
      out.chunks_processed += s.chunks_processed;
      out.rejected_chunks += s.rejected_chunks;
      out.dropped_chunks += s.dropped_chunks;
      out.queued_chunks += s.queue.size();
      out.samples += s.samples;
      out.events += s.events;
      out.beats += s.beats;
      out.events_dropped += s.events_dropped;
    }
  }
  return out;
}

}  // namespace xbs::stream
