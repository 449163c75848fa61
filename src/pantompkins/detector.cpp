#include "xbs/pantompkins/detector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace xbs::pantompkins {

namespace {

/// Samples per block of the local-maximum pass: a multiple of the 64 flags
/// that one candidate word holds.
constexpr std::size_t kScanBlock = 256;
static_assert(kScanBlock % 64 == 0);

/// Eight 0/1 flag bytes packed into bits 0-7, flag k to bit k. The byte
/// expression compiles to one load on little-endian hosts; each fold step
/// halves the distance between neighbouring flags.
u64 pack_flags8(const u8* f) noexcept {
  u64 g = u64{f[0]} | u64{f[1]} << 8 | u64{f[2]} << 16 | u64{f[3]} << 24 | u64{f[4]} << 32 |
          u64{f[5]} << 40 | u64{f[6]} << 48 | u64{f[7]} << 56;
  g = (g | g >> 7) & 0x0003000300030003u;
  g = (g | g >> 14) & 0x0000000F0000000Fu;
  return (g | g >> 28) & 0xFFu;
}

}  // namespace

bool DetectorParams::valid() const noexcept {
  const auto samples = [](int n) { return n >= 0 && n <= kMaxWindowSamples; };
  return std::isfinite(fs_hz) && fs_hz > 0.0 && samples(refractory_samples) &&
         samples(t_wave_window_samples) && t_wave_slope_ratio >= 0.0 && threshold_coeff >= 0.0 &&
         search_back_factor >= 0.0 && search_back_threshold >= 0.0 &&
         samples(mwi_hpf_lag_samples) && samples(alignment_tolerance) &&
         samples(hpf_search_halfwidth) && samples(raw_delay_samples) &&
         samples(raw_refine_halfwidth);
}

// ------------------------------------------------------------ OnlineDetector
//
// The decision logic is sequential in fiducial-mark order; everything it
// reads lies within a bounded window around the mark being judged (threshold
// training on the first two seconds aside). Streaming therefore reduces to
// bookkeeping about *when* a piece of work is final:
//  - index i can be tested as a local maximum once i+1 has arrived,
//  - a candidate mark is final once the stream is min_sep past it (no later
//    candidate can replace it in the separation merge),
//  - a final mark can be judged once the stream covers its HPF/raw search
//    windows (lookahead_), or unconditionally at flush, where the batch
//    path's clamp-to-record-end applies.
// Every threshold/RR/search-back rule is a verbatim port of the batch loop,
// so any chunking reproduces detect_qrs() bit for bit.

OnlineDetector::OnlineDetector(const DetectorParams& params, bool keep_result)
    : p_(params), keep_result_(keep_result) {
  if (!p_.valid()) {
    throw std::invalid_argument("OnlineDetector: invalid DetectorParams");
  }
  min_sep_ = p_.refractory_samples / 2;
  train_target_ = static_cast<std::size_t>(std::llround(2.0 * p_.fs_hz));
  const std::ptrdiff_t rel_hpf =
      static_cast<std::ptrdiff_t>(p_.hpf_search_halfwidth) - p_.mwi_hpf_lag_samples;
  const std::ptrdiff_t rel_raw = rel_hpf - p_.raw_delay_samples + p_.raw_refine_halfwidth;
  lookahead_ = static_cast<std::size_t>(std::max<std::ptrdiff_t>({0, rel_hpf, rel_raw}));
  // Summed in ptrdiff_t; valid() bounds each term by kMaxWindowSamples.
  const std::ptrdiff_t hpf_back =
      static_cast<std::ptrdiff_t>(p_.mwi_hpf_lag_samples) + p_.hpf_search_halfwidth;
  const std::ptrdiff_t back = std::max<std::ptrdiff_t>(
      {1, hpf_back, hpf_back + p_.raw_delay_samples + p_.raw_refine_halfwidth,
       p_.refractory_samples / 2 + 1});
  back_need_ = static_cast<std::size_t>(back) + 4;
}

OnlineDetector::Window OnlineDetector::window(const std::vector<i32>& v, std::ptrdiff_t lo,
                                              std::ptrdiff_t hi) const {
  lo = std::max<std::ptrdiff_t>(lo, 0);
  hi = std::min<std::ptrdiff_t>(hi, static_cast<std::ptrdiff_t>(n_) - 1);
  const auto first = static_cast<std::size_t>(lo);
  return {first, v.data() + (first - base_), hi < lo ? 0 : static_cast<std::size_t>(hi - lo) + 1};
}

i32 OnlineDetector::max_in(const std::vector<i32>& v, std::ptrdiff_t lo, std::ptrdiff_t hi) const {
  // The value argmax_in's index holds, as a max-reduction.
  const Window w = window(v, lo, hi);
  i32 top = w.x[0];
  for (std::size_t j = 1; j < w.len; ++j) top = std::max(top, w.x[j]);
  return top;
}

std::size_t OnlineDetector::argmax_in(const std::vector<i32>& v, std::ptrdiff_t lo,
                                      std::ptrdiff_t hi) const {
  // The earliest index holding the maximum of the clamped window, in one
  // branch-free pass (only a strictly higher sample moves it); an empty
  // window yields its first index.
  const Window w = window(v, lo, hi);
  const i32* x = w.x;
  const std::size_t len = w.len;
  if (len == 0) return w.first;
  i32 top = x[0];
  std::size_t k = 0;
  for (std::size_t j = 1; j < len; ++j) {
    const bool higher = x[j] > top;
    k = higher ? j : k;
    top = higher ? x[j] : top;
  }
  return w.first + k;
}

double OnlineDetector::rising_slope(std::size_t peak) const {
  // The largest MWI rise over the refractory / 2 samples up to the peak,
  // floored at zero. double(a) - double(b) is exact for i32 a and b, so the
  // maximum of the i64 differences, converted once, is the same double as
  // the maximum of the differences taken in double.
  const std::size_t lookback = static_cast<std::size_t>(p_.refractory_samples / 2);
  const std::size_t lo = peak > lookback ? peak - lookback : 1;
  if (lo > peak) return 0.0;
  const i32* x = mwi_.data() + (lo - base_);
  const i32* prev = x - 1;
  const std::size_t len = peak - lo + 1;
  i64 slope = 0;
  for (std::size_t j = 0; j < len; ++j) {
    slope = std::max(slope, static_cast<i64>(x[j]) - static_cast<i64>(prev[j]));
  }
  return static_cast<double>(slope);
}

double OnlineDetector::rr_mean() const {
  if (rr_history_.empty()) return p_.fs_hz;  // prior: 60 bpm
  const std::size_t n = std::min<std::size_t>(rr_history_.size(), 8);
  double s = 0.0;
  for (std::size_t i = rr_history_.size() - n; i < rr_history_.size(); ++i) s += rr_history_[i];
  return s / static_cast<double>(n);
}

void OnlineDetector::train_now() {
  // Threshold training on the first two seconds (or the whole record when it
  // is shorter — the flush path). History has not been trimmed yet: trimming
  // is gated on trained_.
  const std::size_t train = std::min<std::size_t>(n_, train_target_);
  double train_max = 0.0, train_mean = 0.0;
  for (std::size_t i = 0; i < train; ++i) {
    train_max = std::max(train_max, static_cast<double>(mwi_at(i)));
    train_mean += static_cast<double>(mwi_at(i));
  }
  train_mean /= static_cast<double>(std::max<std::size_t>(train, 1));
  th_i_ = Thresholds{0.4 * train_max, 0.7 * train_mean};
  double fmax = 0.0, fmean = 0.0;
  for (std::size_t i = 0; i < train; ++i) {
    fmax = std::max(fmax, static_cast<double>(hpf_at(i)));
    fmean += std::abs(static_cast<double>(hpf_at(i)));
  }
  fmean /= static_cast<double>(std::max<std::size_t>(train, 1));
  th_f_ = Thresholds{0.4 * fmax, 0.7 * fmean};
  trained_ = true;
}

void OnlineDetector::locate(MarkContext& m) const {
  if (m.located) return;
  const std::ptrdiff_t expect =
      static_cast<std::ptrdiff_t>(m.mark) - p_.mwi_hpf_lag_samples;
  m.hpf_idx = argmax_in(hpf_, expect - p_.hpf_search_halfwidth, expect + p_.hpf_search_halfwidth);
  const std::ptrdiff_t est =
      static_cast<std::ptrdiff_t>(m.hpf_idx) - p_.raw_delay_samples;
  m.raw_idx = argmax_in(raw_, est - p_.raw_refine_halfwidth, est + p_.raw_refine_halfwidth);
  m.misalign = static_cast<int>(std::abs(static_cast<std::ptrdiff_t>(m.hpf_idx) - expect));
  m.located = true;
}

double OnlineDetector::slope_of(MarkContext& m) const {
  if (!m.sloped) {
    m.slope = rising_slope(m.mark);
    m.sloped = true;
  }
  return m.slope;
}

void OnlineDetector::emit(const PeakEvent& ev) {
  // With keep_result on, a call's events are the tail of the trace it grows.
  (keep_result_ ? result_.trace : fresh_).push_back(ev);
}

std::span<const PeakEvent> OnlineDetector::emitted(std::size_t first) const noexcept {
  if (keep_result_) return std::span<const PeakEvent>(result_.trace).subspan(first);
  return fresh_;
}

void OnlineDetector::accept(PeakEvent ev, double slope) {
  if (last_accept_ >= 0) {
    rr_history_.push_back(static_cast<double>(ev.mwi_index) -
                          static_cast<double>(last_accept_));
    // rr_mean() only ever reads the last 8 intervals; cap the history so a
    // long-lived session stays O(1).
    if (rr_history_.size() > 8) rr_history_.erase(rr_history_.begin());
  }
  last_accept_ = static_cast<std::ptrdiff_t>(ev.mwi_index);
  last_slope_ = slope;
  th_i_.signal_update(static_cast<double>(ev.mwi_value));
  th_f_.signal_update(static_cast<double>(ev.hpf_value));
  if (keep_result_) {
    // Keep peaks sorted and unique at all times (search-back accepts out of
    // order) — same final content as the batch path's end-of-run sort+unique.
    const auto it =
        std::lower_bound(result_.peaks.begin(), result_.peaks.end(), ev.raw_index);
    if (it == result_.peaks.end() || *it != ev.raw_index) {
      result_.peaks.insert(it, ev.raw_index);
    }
  }
  emit(ev);
  pending_.active = false;
}

void OnlineDetector::note_rejected(MarkContext& m) {
  // Maintain the argmax over the rejected marks since the last accepted
  // beat (strict > mirrors the batch scan: earliest wins ties), snapshotting
  // everything a later search-back acceptance would read — the values are
  // pure functions of the signal around the mark, which is fully resident
  // right now, so recomputing them later would yield the same bits.
  const i64 v = mwi_at(m.mark);
  if (!outranks_pending(v)) return;
  locate(m);
  pending_.active = true;
  pending_.mark = m.mark;
  pending_.mwi_value = v;
  pending_.slope = slope_of(m);
  pending_.hpf_idx = m.hpf_idx;
  pending_.raw_idx = m.raw_idx;
  pending_.misalign = m.misalign;
  pending_.hpf_value = hpf_at(m.hpf_idx);
}

void OnlineDetector::on_candidate(std::size_t c) {
  // The separation merge: among candidates closer than min_sep the taller
  // survives; a candidate min_sep or further away finalizes its predecessor.
  if (have_cand_ && c - cand_ < static_cast<std::size_t>(min_sep_)) {
    cand_ = mwi_at(c) > mwi_at(cand_) ? c : cand_;
  } else {
    if (have_cand_) marks_.push_back(cand_);
    cand_ = c;
    have_cand_ = true;
  }
}

void OnlineDetector::process_mark(std::size_t mark) {
  PeakEvent ev;
  ev.mwi_index = mark;
  ev.mwi_value = mwi_at(mark);

  if (last_accept_ >= 0 &&
      static_cast<std::ptrdiff_t>(mark) - last_accept_ <
          static_cast<std::ptrdiff_t>(p_.refractory_samples)) {
    return;  // inside the absolute refractory: physiologically impossible
  }

  MarkContext m;
  m.mark = mark;
  const double thr1 = th_i_.threshold1(p_.threshold_coeff);
  if (static_cast<double>(ev.mwi_value) > thr1) {
    // T-wave discrimination inside the 360 ms zone.
    if (last_accept_ >= 0 &&
        static_cast<std::ptrdiff_t>(mark) - last_accept_ <
            static_cast<std::ptrdiff_t>(p_.t_wave_window_samples)) {
      if (slope_of(m) < p_.t_wave_slope_ratio * last_slope_) {
        ev.decision = PeakDecision::TWave;
        th_i_.noise_update(static_cast<double>(ev.mwi_value));
        emit(ev);
        note_rejected(m);
        return;
      }
    }
    // HPF/MWI alignment consistency (Fig. 13).
    locate(m);
    ev.hpf_index = m.hpf_idx;
    ev.raw_index = m.raw_idx;
    ev.hpf_value = hpf_at(m.hpf_idx);
    const double thrf = th_f_.threshold1(p_.threshold_coeff);
    if (m.misalign > p_.alignment_tolerance ||
        static_cast<double>(ev.hpf_value) <= thrf) {
      ev.decision = PeakDecision::MisalignedOmitted;
      emit(ev);
      note_rejected(m);
      return;
    }
    ev.decision = PeakDecision::Accepted;
    accept(ev, slope_of(m));
  } else {
    ev.decision = PeakDecision::BelowThreshold;
    th_i_.noise_update(static_cast<double>(ev.mwi_value));
    // The noise update reads the HPF peak's height; only a mark that becomes
    // the search-back candidate needs the peaks' positions.
    i32 hpf_peak = 0;
    if (outranks_pending(ev.mwi_value)) {
      locate(m);
      hpf_peak = hpf_at(m.hpf_idx);
    } else {
      const std::ptrdiff_t expect =
          static_cast<std::ptrdiff_t>(mark) - p_.mwi_hpf_lag_samples;
      hpf_peak = max_in(hpf_, expect - p_.hpf_search_halfwidth, expect + p_.hpf_search_halfwidth);
    }
    th_f_.noise_update(static_cast<double>(hpf_peak));
    emit(ev);
    note_rejected(m);
  }

  // RR search-back: if the gap since the last beat exceeds the missed-beat
  // limit, revisit the tallest pending candidate with the relaxed threshold.
  if (last_accept_ >= 0 && pending_.active) {
    const double limit = p_.search_back_factor * rr_mean();
    if (static_cast<double>(mark) - static_cast<double>(last_accept_) > limit) {
      const double relaxed = p_.search_back_threshold * th_i_.threshold1(p_.threshold_coeff);
      if (static_cast<double>(pending_.mwi_value) > relaxed &&
          static_cast<std::ptrdiff_t>(pending_.mark) - last_accept_ >=
              static_cast<std::ptrdiff_t>(p_.refractory_samples)) {
        if (pending_.misalign <= p_.alignment_tolerance) {
          PeakEvent sb;
          sb.mwi_index = pending_.mark;
          sb.mwi_value = pending_.mwi_value;
          sb.hpf_index = pending_.hpf_idx;
          sb.raw_index = pending_.raw_idx;
          sb.hpf_value = pending_.hpf_value;
          sb.decision = PeakDecision::SearchBackRecovered;
          accept(sb, pending_.slope);
        }
      }
    }
  }
}

void OnlineDetector::scan_candidates() {
  // Index i is a candidate fiducial mark when it rises, mwi[i] > mwi[i-1],
  // and i+1 does not, mwi[i] >= mwi[i+1]; so i runs from scan_ >= 1 to
  // n_ - 2 (the right neighbour must have arrived), and the trim floor keeps
  // scan_ - 1 resident. Branch-free byte passes test each index once; the
  // flags are packed 64 to a word, and only the set ones, visited in index
  // order, reach the separation merge.
  std::array<u8, kScanBlock + 1> rises;
  std::array<u8, kScanBlock> flags;
  while (scan_ + 1 < n_) {
    const std::size_t len = std::min(kScanBlock, n_ - 1 - scan_);
    const i32* x = mwi_.data() + (scan_ - base_);
    const i32* prev = x - 1;
    for (std::size_t j = 0; j <= len; ++j) rises[j] = static_cast<u8>(x[j] > prev[j]);
    for (std::size_t j = 0; j < len; ++j) {
      flags[j] = static_cast<u8>(rises[j] & (rises[j + 1] ^ 1u));
    }
    const std::size_t padded = (len + 63) & ~std::size_t{63};
    std::fill(flags.begin() + static_cast<std::ptrdiff_t>(len),
              flags.begin() + static_cast<std::ptrdiff_t>(padded), u8{0});
    for (std::size_t w = 0; w < padded; w += 64) {
      u64 word = 0;
      for (std::size_t g = 0; g < 64; g += 8) word |= pack_flags8(flags.data() + w + g) << g;
      for (; word != 0; word &= word - 1) {
        on_candidate(scan_ + w + static_cast<std::size_t>(std::countr_zero(word)));
      }
    }
    scan_ += len;
  }
}

void OnlineDetector::advance(bool flushing) {
  // 1. Test newly covered indices for candidate fiducial marks.
  scan_candidates();
  // 2. Finalize the merged candidate once no future candidate can replace it
  //    (all future candidates are at >= scan_), or unconditionally at flush.
  if (have_cand_ &&
      (flushing || scan_ - cand_ >= static_cast<std::size_t>(min_sep_))) {
    marks_.push_back(cand_);
    have_cand_ = false;
  }
  // 3. Judge finalized marks in order. The batch path does nothing on
  //    records shorter than 8 samples, and trains before the first mark.
  if (!trained_ || n_ < 8) return;
  std::size_t judged = 0;
  for (; judged < marks_.size(); ++judged) {
    const std::size_t mark = marks_[judged];
    if (!flushing && n_ < mark + lookahead_ + 1) break;  // search window not covered yet
    process_mark(mark);
  }
  marks_.erase(marks_.begin(), marks_.begin() + static_cast<std::ptrdiff_t>(judged));
}

void OnlineDetector::maybe_trim() {
  if (!trained_) return;  // training still needs the record head
  // The search-back candidate does not pin the window: everything it would
  // read was snapshotted at rejection time (note_rejected).
  std::size_t active = scan_ > 0 ? scan_ - 1 : 0;
  if (have_cand_) active = std::min(active, cand_);
  if (!marks_.empty()) active = std::min(active, marks_.front());
  const std::size_t floor = active > back_need_ ? active - back_need_ : 0;
  if (floor <= base_ + 1024) return;  // trim in blocks, not per push
  const auto drop = static_cast<std::ptrdiff_t>(floor - base_);
  mwi_.erase(mwi_.begin(), mwi_.begin() + drop);
  hpf_.erase(hpf_.begin(), hpf_.begin() + drop);
  raw_.erase(raw_.begin(), raw_.begin() + drop);
  base_ = floor;
}

std::span<const PeakEvent> OnlineDetector::push(std::span<const i32> mwi,
                                                std::span<const i32> hpf,
                                                std::span<const i32> raw) {
  if (flushed_) throw std::logic_error("OnlineDetector: push after flush");
  if (mwi.size() != hpf.size() || mwi.size() != raw.size()) {
    throw std::invalid_argument("OnlineDetector: chunk size mismatch");
  }
  fresh_.clear();
  const std::size_t first = result_.trace.size();
  mwi_.insert(mwi_.end(), mwi.begin(), mwi.end());
  hpf_.insert(hpf_.end(), hpf.begin(), hpf.end());
  raw_.insert(raw_.end(), raw.begin(), raw.end());
  n_ += mwi.size();
  if (!trained_ && n_ >= train_target_) train_now();
  advance(/*flushing=*/false);
  maybe_trim();
  return emitted(first);
}

void OnlineDetector::reset(WarmStart warm) noexcept {
  base_ = 0;
  mwi_.clear();
  hpf_.clear();
  raw_.clear();
  n_ = 0;
  scan_ = 1;
  have_cand_ = false;
  cand_ = 0;
  marks_.clear();
  // Indices restart at zero, so position-anchored state never carries — only
  // the position-free threshold statistics may survive a warm reset.
  last_accept_ = -1;
  pending_ = PendingCandidate{};
  result_.peaks.clear();
  result_.trace.clear();
  fresh_.clear();
  flushed_ = false;
  if (warm == WarmStart::KeepThresholds) return;
  trained_ = false;
  th_i_ = Thresholds{};
  th_f_ = Thresholds{};
  last_slope_ = 0.0;
  rr_history_.clear();
}

std::span<const PeakEvent> OnlineDetector::flush() {
  fresh_.clear();
  const std::size_t first = result_.trace.size();
  if (flushed_) return emitted(first);
  flushed_ = true;
  if (n_ < 8) return emitted(first);  // batch: records this short yield nothing
  if (!trained_) train_now();
  advance(/*flushing=*/true);
  return emitted(first);
}

DetectionResult detect_qrs(std::span<const i32> mwi, std::span<const i32> hpf,
                           std::span<const i32> raw, const DetectorParams& p) {
  if (mwi.size() != hpf.size() || mwi.size() != raw.size()) {
    throw std::invalid_argument("detect_qrs: signal size mismatch");
  }
  OnlineDetector det(p);
  (void)det.push(mwi, hpf, raw);
  (void)det.flush();
  return det.take_result();
}

}  // namespace xbs::pantompkins
