/// \file detector_oracle.hpp
/// \brief Test-only reference copy of the QRS decision logic.
///
/// ReferenceDetector is the straightforward OnlineDetector that the
/// library's branch-free candidate pass and read-once mark judging replaced,
/// kept as it was: a branchy local-maximum test per sample, a rescan of the
/// HPF/raw windows and of the slope window (in doubles) for every judged
/// mark, and a second rescan of both in note_rejected. Every decision rule,
/// its floating-point operations and their order are the library's, so the
/// two must emit the same PeakEvents in the same spans, for any chunking,
/// parameters and reset sequence (tests/test_detector.cpp). It shares the
/// library's DetectorParams/PeakEvent/DetectionResult types and relies on
/// DetectorParams::valid() to bound its window sums. Free of GoogleTest, so
/// bench_micro_kernel can time it against the library detector.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <span>
#include <stdexcept>
#include <vector>

#include "xbs/common/types.hpp"
#include "xbs/pantompkins/detector.hpp"

namespace xbs::oracle {

using pantompkins::DetectionResult;
using pantompkins::DetectorParams;
using pantompkins::PeakDecision;
using pantompkins::PeakEvent;
using pantompkins::WarmStart;

class ReferenceDetector {
 public:
  explicit ReferenceDetector(const DetectorParams& params = {}, bool keep_result = true);

  std::span<const PeakEvent> push(std::span<const i32> mwi, std::span<const i32> hpf,
                                  std::span<const i32> raw);
  std::span<const PeakEvent> flush();
  void reset(WarmStart warm = WarmStart::Cold) noexcept;

  [[nodiscard]] const DetectionResult& result() const noexcept { return result_; }
  [[nodiscard]] DetectionResult take_result() noexcept { return std::move(result_); }

 private:
  struct Thresholds {
    double spk = 0.0;
    double npk = 0.0;

    [[nodiscard]] double threshold1(double coeff) const noexcept {
      return npk + coeff * (spk - npk);
    }
    void signal_update(double peak) noexcept { spk = 0.125 * peak + 0.875 * spk; }
    void noise_update(double peak) noexcept { npk = 0.125 * peak + 0.875 * npk; }
  };

  [[nodiscard]] i32 mwi_at(std::size_t i) const noexcept { return mwi_[i - base_]; }
  [[nodiscard]] i32 hpf_at(std::size_t i) const noexcept { return hpf_[i - base_]; }
  [[nodiscard]] std::size_t argmax_in(const std::vector<i32>& v, std::ptrdiff_t lo,
                                      std::ptrdiff_t hi) const;
  [[nodiscard]] double rising_slope(std::size_t peak, int lookback) const;
  [[nodiscard]] double rr_mean() const;

  void train_now();
  void advance(bool flushing);
  void on_candidate(std::size_t c);
  void process_mark(std::size_t mark);
  [[nodiscard]] int locate(std::size_t mark, std::size_t& hpf_idx, std::size_t& raw_idx) const;
  void emit(const PeakEvent& ev);
  void accept(PeakEvent ev, double slope);
  void note_rejected(std::size_t mark);
  void maybe_trim();

  DetectorParams p_;
  int min_sep_ = 0;
  std::size_t train_target_ = 0;
  std::size_t lookahead_ = 0;
  std::size_t back_need_ = 0;

  std::size_t base_ = 0;
  std::vector<i32> mwi_, hpf_, raw_;
  std::size_t n_ = 0;

  std::size_t scan_ = 1;
  bool have_cand_ = false;
  std::size_t cand_ = 0;
  std::deque<std::size_t> marks_;

  bool trained_ = false;
  Thresholds th_i_{}, th_f_{};
  std::ptrdiff_t last_accept_ = -1;
  double last_slope_ = 0.0;
  std::vector<double> rr_history_;

  struct PendingCandidate {
    bool active = false;
    std::size_t mark = 0;
    i64 mwi_value = 0;
    double slope = 0.0;
    std::size_t hpf_idx = 0;
    std::size_t raw_idx = 0;
    i64 hpf_value = 0;
    int misalign = 0;
  };
  PendingCandidate pending_;

  bool keep_result_ = true;
  DetectionResult result_;
  std::vector<PeakEvent> fresh_;
  bool flushed_ = false;
};

inline ReferenceDetector::ReferenceDetector(const DetectorParams& params, bool keep_result)
    : p_(params), keep_result_(keep_result) {
  if (!p_.valid()) {
    throw std::invalid_argument("ReferenceDetector: invalid DetectorParams");
  }
  min_sep_ = p_.refractory_samples / 2;
  train_target_ = static_cast<std::size_t>(std::llround(2.0 * p_.fs_hz));
  const std::ptrdiff_t rel_hpf =
      static_cast<std::ptrdiff_t>(p_.hpf_search_halfwidth) - p_.mwi_hpf_lag_samples;
  const std::ptrdiff_t rel_raw = rel_hpf - p_.raw_delay_samples + p_.raw_refine_halfwidth;
  lookahead_ = static_cast<std::size_t>(std::max<std::ptrdiff_t>({0, rel_hpf, rel_raw}));
  const std::ptrdiff_t back = std::max<std::ptrdiff_t>(
      {1, p_.mwi_hpf_lag_samples + p_.hpf_search_halfwidth,
       p_.mwi_hpf_lag_samples + p_.hpf_search_halfwidth + p_.raw_delay_samples +
           p_.raw_refine_halfwidth,
       p_.refractory_samples / 2 + 1});
  back_need_ = static_cast<std::size_t>(back) + 4;
}

inline std::size_t ReferenceDetector::argmax_in(const std::vector<i32>& v, std::ptrdiff_t lo,
                                                std::ptrdiff_t hi) const {
  lo = std::max<std::ptrdiff_t>(lo, 0);
  hi = std::min<std::ptrdiff_t>(hi, static_cast<std::ptrdiff_t>(n_) - 1);
  std::size_t best = static_cast<std::size_t>(std::max<std::ptrdiff_t>(lo, 0));
  for (std::ptrdiff_t i = lo; i <= hi; ++i) {
    if (v[static_cast<std::size_t>(i) - base_] > v[best - base_]) {
      best = static_cast<std::size_t>(i);
    }
  }
  return best;
}

inline double ReferenceDetector::rising_slope(std::size_t peak, int lookback) const {
  double slope = 0.0;
  const std::ptrdiff_t lo =
      std::max<std::ptrdiff_t>(1, static_cast<std::ptrdiff_t>(peak) - lookback);
  for (std::ptrdiff_t i = lo; i <= static_cast<std::ptrdiff_t>(peak); ++i) {
    slope = std::max(slope, static_cast<double>(mwi_at(static_cast<std::size_t>(i))) -
                                static_cast<double>(mwi_at(static_cast<std::size_t>(i) - 1)));
  }
  return slope;
}

inline double ReferenceDetector::rr_mean() const {
  if (rr_history_.empty()) return p_.fs_hz;  // prior: 60 bpm
  const std::size_t n = std::min<std::size_t>(rr_history_.size(), 8);
  double s = 0.0;
  for (std::size_t i = rr_history_.size() - n; i < rr_history_.size(); ++i) s += rr_history_[i];
  return s / static_cast<double>(n);
}

inline void ReferenceDetector::train_now() {
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

inline int ReferenceDetector::locate(std::size_t mark, std::size_t& hpf_idx,
                                     std::size_t& raw_idx) const {
  const std::ptrdiff_t expect =
      static_cast<std::ptrdiff_t>(mark) - p_.mwi_hpf_lag_samples;
  hpf_idx = argmax_in(hpf_, expect - p_.hpf_search_halfwidth, expect + p_.hpf_search_halfwidth);
  const std::ptrdiff_t est =
      static_cast<std::ptrdiff_t>(hpf_idx) - p_.raw_delay_samples;
  raw_idx = argmax_in(raw_, est - p_.raw_refine_halfwidth, est + p_.raw_refine_halfwidth);
  return static_cast<int>(std::abs(static_cast<std::ptrdiff_t>(hpf_idx) - expect));
}

inline void ReferenceDetector::emit(const PeakEvent& ev) {
  fresh_.push_back(ev);
  if (keep_result_) result_.trace.push_back(ev);
}

inline void ReferenceDetector::accept(PeakEvent ev, double slope) {
  if (last_accept_ >= 0) {
    rr_history_.push_back(static_cast<double>(ev.mwi_index) -
                          static_cast<double>(last_accept_));
    if (rr_history_.size() > 8) rr_history_.erase(rr_history_.begin());
  }
  last_accept_ = static_cast<std::ptrdiff_t>(ev.mwi_index);
  last_slope_ = slope;
  th_i_.signal_update(static_cast<double>(ev.mwi_value));
  th_f_.signal_update(static_cast<double>(ev.hpf_value));
  if (keep_result_) {
    const auto it =
        std::lower_bound(result_.peaks.begin(), result_.peaks.end(), ev.raw_index);
    if (it == result_.peaks.end() || *it != ev.raw_index) {
      result_.peaks.insert(it, ev.raw_index);
    }
  }
  emit(ev);
  pending_.active = false;
}

inline void ReferenceDetector::note_rejected(std::size_t mark) {
  const i64 v = mwi_at(mark);
  if (pending_.active && v <= pending_.mwi_value) return;
  pending_.active = true;
  pending_.mark = mark;
  pending_.mwi_value = v;
  pending_.slope = rising_slope(mark, p_.refractory_samples / 2);
  pending_.misalign = locate(mark, pending_.hpf_idx, pending_.raw_idx);
  pending_.hpf_value = hpf_at(pending_.hpf_idx);
}

inline void ReferenceDetector::on_candidate(std::size_t c) {
  if (have_cand_ && c - cand_ < static_cast<std::size_t>(min_sep_)) {
    if (mwi_at(c) > mwi_at(cand_)) cand_ = c;
  } else {
    if (have_cand_) marks_.push_back(cand_);
    cand_ = c;
    have_cand_ = true;
  }
}

inline void ReferenceDetector::process_mark(std::size_t mark) {
  PeakEvent ev;
  ev.mwi_index = mark;
  ev.mwi_value = mwi_at(mark);

  if (last_accept_ >= 0 &&
      static_cast<std::ptrdiff_t>(mark) - last_accept_ <
          static_cast<std::ptrdiff_t>(p_.refractory_samples)) {
    return;
  }

  const double thr1 = th_i_.threshold1(p_.threshold_coeff);
  if (static_cast<double>(ev.mwi_value) > thr1) {
    if (last_accept_ >= 0 &&
        static_cast<std::ptrdiff_t>(mark) - last_accept_ <
            static_cast<std::ptrdiff_t>(p_.t_wave_window_samples)) {
      const double slope = rising_slope(mark, p_.refractory_samples / 2);
      if (slope < p_.t_wave_slope_ratio * last_slope_) {
        ev.decision = PeakDecision::TWave;
        th_i_.noise_update(static_cast<double>(ev.mwi_value));
        emit(ev);
        note_rejected(mark);
        return;
      }
    }
    std::size_t hpf_idx = 0, raw_idx = 0;
    const int misalign = locate(mark, hpf_idx, raw_idx);
    ev.hpf_index = hpf_idx;
    ev.raw_index = raw_idx;
    ev.hpf_value = hpf_at(hpf_idx);
    const double thrf = th_f_.threshold1(p_.threshold_coeff);
    if (misalign > p_.alignment_tolerance ||
        static_cast<double>(ev.hpf_value) <= thrf) {
      ev.decision = PeakDecision::MisalignedOmitted;
      emit(ev);
      note_rejected(mark);
      return;
    }
    ev.decision = PeakDecision::Accepted;
    accept(ev, rising_slope(mark, p_.refractory_samples / 2));
  } else {
    ev.decision = PeakDecision::BelowThreshold;
    th_i_.noise_update(static_cast<double>(ev.mwi_value));
    std::size_t hpf_idx = 0, raw_idx = 0;
    (void)locate(mark, hpf_idx, raw_idx);
    th_f_.noise_update(static_cast<double>(hpf_at(hpf_idx)));
    emit(ev);
    note_rejected(mark);
  }

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

inline void ReferenceDetector::advance(bool flushing) {
  while (scan_ + 1 < n_) {
    if (mwi_at(scan_) > mwi_at(scan_ - 1) && mwi_at(scan_) >= mwi_at(scan_ + 1)) {
      on_candidate(scan_);
    }
    ++scan_;
  }
  if (have_cand_ &&
      (flushing || scan_ - cand_ >= static_cast<std::size_t>(min_sep_))) {
    marks_.push_back(cand_);
    have_cand_ = false;
  }
  if (!trained_ || n_ < 8) return;
  while (!marks_.empty()) {
    const std::size_t mark = marks_.front();
    if (!flushing && n_ < mark + lookahead_ + 1) break;
    marks_.pop_front();
    process_mark(mark);
  }
}

inline void ReferenceDetector::maybe_trim() {
  if (!trained_) return;
  std::size_t active = scan_ > 0 ? scan_ - 1 : 0;
  if (have_cand_) active = std::min(active, cand_);
  if (!marks_.empty()) active = std::min(active, marks_.front());
  const std::size_t floor = active > back_need_ ? active - back_need_ : 0;
  if (floor <= base_ + 1024) return;
  const auto drop = static_cast<std::ptrdiff_t>(floor - base_);
  mwi_.erase(mwi_.begin(), mwi_.begin() + drop);
  hpf_.erase(hpf_.begin(), hpf_.begin() + drop);
  raw_.erase(raw_.begin(), raw_.begin() + drop);
  base_ = floor;
}

inline std::span<const PeakEvent> ReferenceDetector::push(std::span<const i32> mwi,
                                                          std::span<const i32> hpf,
                                                          std::span<const i32> raw) {
  if (flushed_) throw std::logic_error("ReferenceDetector: push after flush");
  if (mwi.size() != hpf.size() || mwi.size() != raw.size()) {
    throw std::invalid_argument("ReferenceDetector: chunk size mismatch");
  }
  fresh_.clear();
  mwi_.insert(mwi_.end(), mwi.begin(), mwi.end());
  hpf_.insert(hpf_.end(), hpf.begin(), hpf.end());
  raw_.insert(raw_.end(), raw.begin(), raw.end());
  n_ += mwi.size();
  if (!trained_ && n_ >= train_target_) train_now();
  advance(/*flushing=*/false);
  maybe_trim();
  return fresh_;
}

inline void ReferenceDetector::reset(WarmStart warm) noexcept {
  base_ = 0;
  mwi_.clear();
  hpf_.clear();
  raw_.clear();
  n_ = 0;
  scan_ = 1;
  have_cand_ = false;
  cand_ = 0;
  marks_.clear();
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

inline std::span<const PeakEvent> ReferenceDetector::flush() {
  fresh_.clear();
  if (flushed_) return fresh_;
  flushed_ = true;
  if (n_ < 8) return fresh_;
  if (!trained_) train_now();
  advance(/*flushing=*/true);
  return fresh_;
}

/// Whole-record run: push + flush, as the library's detect_qrs().
inline DetectionResult reference_detect_qrs(std::span<const i32> mwi, std::span<const i32> hpf,
                                            std::span<const i32> raw,
                                            const DetectorParams& p = {}) {
  ReferenceDetector det(p);
  (void)det.push(mwi, hpf, raw);
  (void)det.flush();
  return det.take_result();
}

}  // namespace xbs::oracle
