/// \file session.hpp
/// \brief The streaming session API: incremental chunked Pan-Tompkins with
/// online QRS events.
///
/// Real edge deployments consume ADC samples as they arrive and must emit
/// beat/arrhythmia events online — they cannot hold a whole recording before
/// anything happens. A Session is one long-lived monitored stream: it is
/// built from a declarative SessionSpec (pipeline arithmetic configuration +
/// detector parameters + retention/sink options), accepts arbitrarily sized
/// sample chunks via push(), and returns the QRS decisions those samples
/// finalized. Internally it owns one kernel and one resumable StageProcessor
/// per pipeline stage (each carrying only its last T-1 or w-1 inputs between
/// chunks) plus an OnlineDetector, so memory stays bounded for unbounded
/// streams while output remains bit-identical to the whole-record
/// PanTompkinsPipeline::run for any chunking — one sample at a time
/// included.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::stream {

/// One online detector decision, enriched with wall-clock/rate context.
/// Index fields inside `peak` are absolute stream positions.
struct Event {
  pantompkins::PeakEvent peak{};
  double time_s = 0.0;   ///< event time (R location for beats) in seconds
  double rr_s = 0.0;     ///< RR interval vs the previous beat (beats only; 0 for the first)
  double hr_bpm = 0.0;   ///< instantaneous heart rate (beats only)

  /// True for decisions that count as detected heartbeats.
  [[nodiscard]] bool is_beat() const noexcept {
    return peak.decision == pantompkins::PeakDecision::Accepted ||
           peak.decision == pantompkins::PeakDecision::SearchBackRecovered;
  }
};

/// Declarative description of a session: what to compute, what to retain,
/// where to deliver events. Copyable — one spec can open many sessions.
struct SessionSpec {
  /// Per-stage arithmetic + detector constants (as for the batch pipeline).
  pantompkins::PipelineConfig config{};

  /// Accumulate the cumulative DetectionResult (trace + peaks). Turn off for
  /// unbounded serving streams that only consume the emitted events — the
  /// session then holds O(window) state regardless of stream length.
  bool keep_detection = true;

  /// Retain every per-stage output signal (batch parity / debugging; grows
  /// with the stream).
  bool keep_signals = false;

  /// Optional push-time event sink, invoked for every finalized decision (in
  /// addition to the events returned by push/flush). Called on whichever
  /// thread drives the session — under a StreamServer that is a worker
  /// thread, and a sink sharing state across sessions must synchronize
  /// internally (see server.hpp and README "Serving"). A sink that throws
  /// quarantines its session when driven by the server.
  std::function<void(const Event&)> sink;
};

/// A stateful streaming session over the five-stage pipeline + detector.
///
///   stream::Session s({.config = cfg});
///   while (adc.has_data()) {
///     for (const Event& ev : s.push(adc.next_chunk())) {
///       if (ev.is_beat()) on_beat(ev);
///     }
///   }
///   s.flush();  // end-of-record: finalize tail decisions
///
/// Sessions are single-consumer objects (one stream each); many sessions run
/// concurrently on different threads, sharing only the immutable process-wide
/// multiplier/coefficient LUTs (see pantompkins::warm_pipeline_tables).
class Session {
 public:
  explicit Session(SessionSpec spec);

  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  /// Feed one chunk of digitized samples (any size, zero included). Returns
  /// the events finalized by this chunk (valid until the next push/flush).
  /// A chunk above pantompkins::kStageBlock samples runs as consecutive
  /// slices of that size, so the cost per sample does not grow with it.
  std::span<const Event> push(std::span<const i32> chunk);

  /// End-of-record: finalize and emit everything still pending. Idempotent;
  /// push() after flush() throws.
  std::span<const Event> flush();

  /// Re-arm for a fresh record on the same wiring: zeroes every stage's
  /// carried input history in place, resets the online detector,
  /// retained signals, counters, kernel op counts and the flushed flag. With
  /// WarmStart::Cold (the default) the session behaves exactly like a newly
  /// constructed one afterwards — without rebuilding kernels or touching the
  /// shared LUT caches. WarmStart::KeepThresholds carries the detector's
  /// trained SPK/NPK/RR state across the reset (the reconnect warm start —
  /// see pantompkins::WarmStart for the bit-identity contract); the filter
  /// chain still restarts cold either way. This is what lets a serving slot
  /// be reused across patient reconnects.
  void reset(pantompkins::WarmStart warm = pantompkins::WarmStart::Cold);

  [[nodiscard]] const SessionSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool flushed() const noexcept { return flushed_; }
  [[nodiscard]] u64 samples_pushed() const noexcept { return n_; }
  [[nodiscard]] u64 events_emitted() const noexcept { return events_; }
  [[nodiscard]] u64 beats_detected() const noexcept { return beats_; }

  /// Cumulative detector output (empty unless spec.keep_detection; final
  /// after flush() and then bit-identical to the batch pipeline's).
  [[nodiscard]] const pantompkins::DetectionResult& detection() const noexcept;

  /// Per-stage / aggregate datapath operation counts so far (the energy
  /// accounting hook: price with hwmodel::SoftwareEnergyModel::ops_energy_j
  /// or the ASIC block costs).
  [[nodiscard]] std::array<arith::OpCounts, pantompkins::kNumStages> ops() const noexcept;
  [[nodiscard]] arith::OpCounts total_ops() const noexcept;

  /// Retained stage signal (empty unless spec.keep_signals).
  [[nodiscard]] const std::vector<i32>& stage_signal(pantompkins::Stage s) const noexcept {
    return signals_[static_cast<std::size_t>(s)];
  }

 private:
  void deliver(std::span<const pantompkins::PeakEvent> evs);

  SessionSpec spec_;
  /// Built before the kernels: invalid DetectorParams throw before any is made.
  pantompkins::OnlineDetector detector_;
  std::array<std::unique_ptr<arith::Kernel>, pantompkins::kNumStages> kernels_;
  std::vector<pantompkins::StageProcessor> stages_;  ///< one per pipeline stage
  /// Per-stage chunk outputs, reused across pushes (allocation-free hot path).
  std::array<std::vector<i32>, pantompkins::kNumStages> chain_;
  std::array<std::vector<i32>, pantompkins::kNumStages> signals_;

  u64 n_ = 0;
  u64 events_ = 0;
  u64 beats_ = 0;
  std::ptrdiff_t last_beat_raw_ = -1;  ///< previous beat's raw index (RR/HR context)
  std::vector<Event> fresh_;           ///< events finalized by the current call
  bool flushed_ = false;
};

}  // namespace xbs::stream
