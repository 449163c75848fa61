/// \file detector.hpp
/// \brief Adaptive-threshold QRS decision logic (Pan & Tompkins 1985).
///
/// Operates on the MWI and band-passed (HPF) outputs of the filtering chain:
/// dual running thresholds (signal/noise estimates on both streams), a 200 ms
/// refractory, T-wave slope discrimination, RR-based search-back, and the
/// HPF-vs-MWI peak-alignment consistency check whose failure mode Fig. 13 of
/// the paper dissects ("misalignment of peaks between the HPF and MWI
/// signals ... the detected peak is omitted"). The decision logic is control
/// circuitry and always runs in native arithmetic — the paper approximates
/// only the filter datapaths.
///
/// The core is the incremental OnlineDetector: samples arrive in chunks and
/// decisions are emitted as soon as they are final (a fiducial mark is final
/// once the stream has advanced past its separation/search windows). The
/// whole-record detect_qrs() is a thin one-chunk wrapper over it, so both
/// entry points are bit-identical by construction.
///
/// Cost model. Per pushed sample: one copy into each of the three history
/// streams, and one branch-free local-maximum test (vectorizable byte passes
/// over the span whose flags are packed 64 to a word), so only candidates
/// branch. Per judged fiducial mark, bounded work: its HPF window (2 x
/// hpf_search_halfwidth + 1 samples), raw window (2 x raw_refine_halfwidth +
/// 1) and rising-slope window (refractory / 2 + 1 differences) are each read
/// at most once, in one branch-free pass over contiguous samples; a rejected
/// mark that cannot become the search-back candidate reads only its HPF
/// window, for the peak height. The history is trimmed in blocks behind the
/// earliest index a future decision can read, so it costs amortized O(1) per
/// sample and O(window) memory.
///
/// Tie rules (pinned against a reference copy of the decision logic in
/// tests/detector_oracle.hpp): index i is a candidate when mwi[i] >
/// mwi[i-1] and mwi[i] >= mwi[i+1]; in the separation merge, a later
/// candidate replaces the held one only when strictly taller; the HPF and raw
/// peak searches return the earliest index holding the window's maximum, and
/// the clamped window's first index when the window is empty; the
/// search-back candidate is the earliest of the tallest rejected marks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "xbs/common/types.hpp"

namespace xbs::pantompkins {

/// Tunable constants of the decision logic (defaults follow the published
/// algorithm at 200 Hz).
struct DetectorParams {
  double fs_hz = 200.0;
  int refractory_samples = 40;        ///< 200 ms absolute refractory
  int t_wave_window_samples = 72;     ///< 360 ms T-wave discrimination zone
  double t_wave_slope_ratio = 0.5;    ///< candidate slope must exceed this x last QRS slope
  double threshold_coeff = 0.25;      ///< THR = NPK + coeff * (SPK - NPK)
  double search_back_factor = 1.66;   ///< missed-beat limit (x mean RR)
  double search_back_threshold = 0.5; ///< relaxed threshold factor for search-back
  int mwi_hpf_lag_samples = 16;       ///< expected MWI-peak lag behind the HPF peak
  int alignment_tolerance = 10;       ///< max |lag - expected| before omission
  int hpf_search_halfwidth = 12;      ///< +/- window when locating the HPF peak
  int raw_delay_samples = 20;         ///< HPF index -> raw index compensation
  int raw_refine_halfwidth = 8;       ///< local-max refinement on the raw signal

  /// Largest accepted value of every sample-count constant above (the
  /// refractory, T-wave window, lag, tolerance, half-widths and delay): 2^20
  /// samples, 87 minutes at 200 Hz. It keeps the detector's window sums far
  /// inside int and its sample history bounded.
  static constexpr int kMaxWindowSamples = 1 << 20;

  /// Structural sanity of the constants: a positive finite sampling rate,
  /// non-negative ratios, and sample counts in [0, kMaxWindowSamples].
  /// Checked by both the batch (detect_qrs) and streaming (OnlineDetector,
  /// stream::Session) entry points.
  [[nodiscard]] bool valid() const noexcept;

  /// Equality is what lets the exploration stage cache reuse a cached
  /// detection when only filter configurations changed.
  friend constexpr bool operator==(const DetectorParams&, const DetectorParams&) = default;
};

/// What a detector reset() carries over into the next record.
///
/// Cold is the default and the bit-identity contract: a cold-reset detector
/// is observably identical to a freshly constructed one, including the two
/// seconds of threshold training at the head of the new record.
/// KeepThresholds is the reconnect warm start: the trained SPK/NPK estimates
/// (both thresholds), the RR history and the last QRS slope survive, so a
/// session re-armed after a link drop resumes detecting immediately instead
/// of spending ~2 s retraining. A warm-started run is deliberately NOT
/// bit-identical to a fresh one — its thresholds embed the previous
/// episode — which is why it is opt-in. An untrained detector warm-resets
/// to the same state as a cold reset (there is nothing to carry).
enum class WarmStart {
  Cold,            ///< full re-arm: bit-identical to a new detector
  KeepThresholds,  ///< carry trained SPK/NPK + RR state across the reset
};

/// Why a candidate fiducial mark was or was not accepted (Fig. 13 analysis).
enum class PeakDecision {
  Accepted,            ///< classified as a QRS complex
  BelowThreshold,      ///< noise peak (below THRESHOLD I1)
  TWave,               ///< rejected by the slope discrimination
  MisalignedOmitted,   ///< above threshold but HPF/MWI peaks misaligned
  SearchBackRecovered, ///< accepted retroactively by RR search-back
};

/// One candidate event in the detector trace.
struct PeakEvent {
  std::size_t mwi_index = 0;  ///< fiducial mark in MWI coordinates
  std::size_t hpf_index = 0;  ///< matched band-passed peak (if located)
  std::size_t raw_index = 0;  ///< reported R location in raw-signal coordinates
  i64 mwi_value = 0;
  i64 hpf_value = 0;
  PeakDecision decision = PeakDecision::BelowThreshold;

  friend constexpr bool operator==(const PeakEvent&, const PeakEvent&) = default;
};

/// Full detector output.
struct DetectionResult {
  std::vector<std::size_t> peaks;  ///< accepted R locations (raw coordinates)
  std::vector<PeakEvent> trace;    ///< every candidate with its decision
};

/// Incremental QRS detector: the streaming core of the decision logic.
///
/// Feed equally sized, index-aligned (MWI, HPF, raw) chunks via push();
/// decisions come back as PeakEvents the moment they are final. flush()
/// marks end-of-record and finalizes the tail. After push(a); push(b); ...;
/// flush(), result() is bit-identical to detect_qrs() over the concatenated
/// record — for any chunking, including one sample at a time.
///
/// Memory stays bounded for arbitrarily long streams: the detector keeps a
/// sliding sample-history window (trimmed behind the earliest index any
/// future decision can still read) plus O(1) threshold/RR/search-back state
/// — the search-back candidate set collapses to its running argmax with the
/// decision context snapshotted at rejection time (see PendingCandidate).
/// Cumulative trace/peak accumulation into result() can be disabled for
/// long-lived serving sessions that only consume the emitted events.
class OnlineDetector {
 public:
  explicit OnlineDetector(const DetectorParams& params = {}, bool keep_result = true);

  /// Consume one chunk of aligned MWI/HPF/raw samples. Returns the events
  /// finalized by this chunk (valid until the next push, flush, reset or
  /// take_result call).
  std::span<const PeakEvent> push(std::span<const i32> mwi, std::span<const i32> hpf,
                                  std::span<const i32> raw);

  /// End-of-record: finalize and emit everything still pending. Idempotent;
  /// push() after flush() throws.
  std::span<const PeakEvent> flush();

  /// Re-arm for a fresh record: drops the sample window, search-back state,
  /// any accumulated result, and the flushed flag. WarmStart::Cold (the
  /// default) also drops the trained thresholds and RR history — observably
  /// identical to constructing a new detector with the same params, but
  /// without re-deriving the wiring constants or reallocating.
  /// WarmStart::KeepThresholds carries the trained SPK/NPK/RR state into the
  /// next record (see the enum for the bit-identity contract).
  void reset(WarmStart warm = WarmStart::Cold) noexcept;

  [[nodiscard]] const DetectorParams& params() const noexcept { return p_; }
  [[nodiscard]] bool flushed() const noexcept { return flushed_; }

  /// Cumulative detection output (empty when keep_result is off). Peaks are
  /// kept sorted and deduplicated at all times; after flush() this equals
  /// the batch detect_qrs() result exactly.
  [[nodiscard]] const DetectionResult& result() const noexcept { return result_; }
  [[nodiscard]] DetectionResult take_result() noexcept { return std::move(result_); }

 private:
  struct Thresholds {
    double spk = 0.0;  ///< running signal-peak estimate
    double npk = 0.0;  ///< running noise-peak estimate

    [[nodiscard]] double threshold1(double coeff) const noexcept {
      return npk + coeff * (spk - npk);
    }
    void signal_update(double peak) noexcept { spk = 0.125 * peak + 0.875 * spk; }
    void noise_update(double peak) noexcept { npk = 0.125 * peak + 0.875 * npk; }
  };

  /// What the rules read around one judged mark: its located HPF/raw peaks
  /// and its rising slope, each computed on first use and at most once
  /// (process_mark, then note_rejected).
  struct MarkContext {
    std::size_t mark = 0;
    bool located = false;
    std::size_t hpf_idx = 0;
    std::size_t raw_idx = 0;
    int misalign = 0;  ///< |HPF peak - expected HPF index|
    bool sloped = false;
    double slope = 0.0;
  };

  // --- history access (absolute stream indices over the trimmed window) ---
  [[nodiscard]] i32 mwi_at(std::size_t i) const noexcept { return mwi_[i - base_]; }
  [[nodiscard]] i32 hpf_at(std::size_t i) const noexcept { return hpf_[i - base_]; }

  /// A search window [lo, hi] clamped to the samples seen so far.
  struct Window {
    std::size_t first;  ///< absolute index of the clamped window's start
    const i32* x;       ///< its samples
    std::size_t len;    ///< 0 when empty
  };
  [[nodiscard]] Window window(const std::vector<i32>& v, std::ptrdiff_t lo,
                              std::ptrdiff_t hi) const;
  [[nodiscard]] i32 max_in(const std::vector<i32>& v, std::ptrdiff_t lo, std::ptrdiff_t hi) const;
  [[nodiscard]] std::size_t argmax_in(const std::vector<i32>& v, std::ptrdiff_t lo,
                                      std::ptrdiff_t hi) const;
  /// Whether a rejected mark of MWI height \p v becomes the search-back
  /// candidate (strictly taller than the current one, or the first).
  [[nodiscard]] bool outranks_pending(i64 v) const noexcept {
    return !pending_.active || v > pending_.mwi_value;
  }
  [[nodiscard]] double rising_slope(std::size_t peak) const;
  [[nodiscard]] double rr_mean() const;

  void train_now();
  void advance(bool flushing);
  void scan_candidates();
  void on_candidate(std::size_t c);
  void process_mark(std::size_t mark);
  void locate(MarkContext& m) const;
  [[nodiscard]] double slope_of(MarkContext& m) const;
  void emit(const PeakEvent& ev);
  /// The events emitted since the trace held \p first events.
  [[nodiscard]] std::span<const PeakEvent> emitted(std::size_t first) const noexcept;
  void accept(PeakEvent ev, double slope);
  void note_rejected(MarkContext& m);
  void maybe_trim();

  DetectorParams p_;
  int min_sep_ = 0;             ///< fiducial-mark separation (refractory / 2)
  std::size_t train_target_ = 0;///< training-window length (2 s)
  std::size_t lookahead_ = 0;   ///< samples past a mark before it can be judged
  std::size_t back_need_ = 0;   ///< history depth behind the earliest live index

  // Sample history as a sliding window: absolute index i lives at [i - base_].
  std::size_t base_ = 0;
  std::vector<i32> mwi_, hpf_, raw_;
  std::size_t n_ = 0;  ///< total samples seen

  // Fiducial-mark scanning and separation merging.
  std::size_t scan_ = 1;     ///< next index to test as a local maximum
  bool have_cand_ = false;   ///< an unfinalized (possibly still replaceable) mark
  std::size_t cand_ = 0;
  std::vector<std::size_t> marks_;  ///< finalized marks awaiting judgement, in order

  // Decision state (the batch loop's locals, made persistent).
  bool trained_ = false;
  Thresholds th_i_{}, th_f_{};
  std::ptrdiff_t last_accept_ = -1;
  double last_slope_ = 0.0;
  std::vector<double> rr_history_;  ///< last accepted RR intervals (capped at 8)

  /// The search-back candidate. The batch path keeps every rejected mark
  /// since the last accepted beat and scans them for the tallest (earliest
  /// wins ties); only that argmax ever feeds the search-back decision, so an
  /// incrementally maintained argmax is observably identical — with its
  /// decision context (slope, located HPF/raw peaks) snapshotted at
  /// rejection time, when the history around the mark is guaranteed
  /// resident, so the sliding window never has to reach back to it.
  struct PendingCandidate {
    bool active = false;  ///< any rejected mark since the last accepted beat
    std::size_t mark = 0;
    i64 mwi_value = 0;
    double slope = 0.0;  ///< rising_slope at the mark
    std::size_t hpf_idx = 0;
    std::size_t raw_idx = 0;
    i64 hpf_value = 0;
    int misalign = 0;
  };
  PendingCandidate pending_;

  bool keep_result_ = true;
  DetectionResult result_;
  /// Events finalized by the current call when keep_result is off; with it
  /// on they are the tail of result_.trace, so no event is stored twice.
  std::vector<PeakEvent> fresh_;
  bool flushed_ = false;
};

/// Run the decision logic over a whole record. \p mwi, \p hpf and \p raw
/// must be equally sized. Implemented as OnlineDetector push+flush, so batch
/// and streaming results are identical by construction.
[[nodiscard]] DetectionResult detect_qrs(std::span<const i32> mwi, std::span<const i32> hpf,
                                         std::span<const i32> raw,
                                         const DetectorParams& params = {});

}  // namespace xbs::pantompkins
