/// \file pt_oracle.hpp
/// \brief Test-only reference models of the Pan-Tompkins chain.
///
/// Two independent oracles for the fixed-point stages in
/// xbs/pantompkins/stages.hpp:
///  - the double-precision chain (whole-record FIR filtering, the original
///    recursive 1985 LPF/HPF, frequency responses), which pins the integer
///    tap sets to the published filters;
///  - the per-sample scalar datapath of each stage over an ArithmeticUnit
///    (scalar_unit.hpp): one sample in, one out, every add and multiply a
///    separate unit call. The chunked stage transforms must match it bit for
///    bit, operation counts included, for any chunking.
#pragma once

#include <complex>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "scalar_unit.hpp"
#include "xbs/common/fixed.hpp"
#include "xbs/common/types.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::oracle {

// ------------------------------------------------------- double precision

/// Integer taps divided by a gain (e.g. the LPF's 36 for unity DC gain).
inline std::vector<double> normalized_taps(std::span<const int> taps, double gain) {
  std::vector<double> out;
  out.reserve(taps.size());
  for (const int t : taps) out.push_back(static_cast<double>(t) / gain);
  return out;
}

/// Direct-form FIR over a whole record from a zero state:
/// y[n] = sum_i c_i x[n-i], same length as \p x.
inline std::vector<double> fir_filter(std::span<const double> taps, std::span<const double> x) {
  std::vector<double> y(x.size(), 0.0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < taps.size() && i <= n; ++i) acc += taps[i] * x[n - i];
    y[n] = acc;
  }
  return y;
}

/// Magnitude response |H(e^{j 2 pi f / fs})| of a tap set.
inline double magnitude_response(std::span<const double> taps, double f_hz, double fs_hz) {
  const double w = 2.0 * std::numbers::pi * f_hz / fs_hz;
  std::complex<double> h{0.0, 0.0};
  for (std::size_t i = 0; i < taps.size(); ++i) {
    h += taps[i] * std::polar(1.0, -w * static_cast<double>(i));
  }
  return std::abs(h);
}

/// Per-stage outputs of the double-precision chain (all the input's length).
struct PtReferenceOutput {
  std::vector<double> lpf;
  std::vector<double> hpf;
  std::vector<double> der;
  std::vector<double> sqr;
  std::vector<double> mwi;
};

/// The Pan-Tompkins filter chain in double precision, with normalized stage
/// gains: LPF /36, HPF /32, DER /8, MWI /window.
inline PtReferenceOutput pt_reference_chain(std::span<const double> x) {
  PtReferenceOutput out;
  out.lpf = fir_filter(normalized_taps(pantompkins::kLpfTaps, 36.0), x);
  out.hpf = fir_filter(normalized_taps(pantompkins::kHpfTaps, 32.0), out.lpf);
  out.der = fir_filter(normalized_taps(pantompkins::kDerTaps, 8.0), out.hpf);
  out.sqr.reserve(x.size());
  for (const double v : out.der) out.sqr.push_back(v * v);
  const auto window = static_cast<std::size_t>(pantompkins::kMwiWindow);
  out.mwi.assign(x.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < out.sqr.size(); ++i) {
    acc += out.sqr[i];
    if (i >= window) acc -= out.sqr[i - window];
    out.mwi[i] = acc / pantompkins::kMwiWindow;
  }
  return out;
}

/// The published recursive LPF over a whole record, unnormalized (gain 36):
/// y[n] = 2 y[n-1] - y[n-2] + x[n] - 2 x[n-6] + x[n-12].
inline std::vector<double> pt_recursive_lpf(std::span<const double> x) {
  const auto past = [x](std::size_t n, std::size_t k) { return n >= k ? x[n - k] : 0.0; };
  std::vector<double> y(x.size());
  double y1 = 0.0, y2 = 0.0;
  for (std::size_t n = 0; n < x.size(); ++n) {
    y[n] = 2.0 * y1 - y2 + x[n] - 2.0 * past(n, 6) + past(n, 12);
    y2 = std::exchange(y1, y[n]);
  }
  return y;
}

/// The published recursive HPF over a whole record, gain 32 (the integer form
/// of all-pass minus moving average):
/// y[n] = y[n-1] - x[n] + 32 x[n-16] - 32 x[n-17] + x[n-32].
inline std::vector<double> pt_recursive_hpf(std::span<const double> x) {
  const auto past = [x](std::size_t n, std::size_t k) { return n >= k ? x[n - k] : 0.0; };
  std::vector<double> y(x.size());
  double y1 = 0.0;
  for (std::size_t n = 0; n < x.size(); ++n) {
    y[n] = y1 - x[n] + 32.0 * past(n, 16) - 32.0 * past(n, 17) + past(n, 32);
    y1 = y[n];
  }
  return y;
}

// ------------------------------------------------ per-sample scalar datapath

/// pantompkins::FirStage, one sample at a time: products in tap order (zero
/// taps skipped) accumulated through a chain of 32-bit adds, then the
/// normalization shift and the 16-bit inter-stage register.
class ScalarFirStage {
 public:
  ScalarFirStage(std::span<const int> taps, int out_shift, ArithmeticUnit& unit)
      : taps_(taps.begin(), taps.end()),
        delay_(taps.size(), 0),
        out_shift_(out_shift),
        unit_(&unit) {}

  i32 process(i32 x) {
    delay_[head_] = x;
    i64 acc = 0;
    bool first = true;
    std::size_t idx = head_;
    for (const int c : taps_) {
      if (c != 0) {
        const i64 p = unit_->mul(c, delay_[idx]);
        acc = first ? p : unit_->add(acc, p);
        first = false;
      }
      idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
    }
    head_ = (head_ + 1) % delay_.size();
    return static_cast<i32>(saturate_to_bits(acc >> out_shift_, 16));
  }

 private:
  std::vector<int> taps_;
  std::vector<i32> delay_;
  std::size_t head_ = 0;
  int out_shift_;
  ArithmeticUnit* unit_;
};

/// pantompkins::SquarerStage, one sample at a time.
class ScalarSquarerStage {
 public:
  ScalarSquarerStage(int out_shift, ArithmeticUnit& unit)
      : out_shift_(out_shift), unit_(&unit) {}

  i32 process(i32 x) {
    const i64 clamped = saturate_to_bits(x, 16);
    return static_cast<i32>(unit_->mul(clamped, clamped) >> out_shift_);
  }

 private:
  int out_shift_;
  ArithmeticUnit* unit_;
};

/// pantompkins::MwiStage, one sample at a time: the balanced feed-forward
/// adder tree (tree_sum) over the window contents, oldest first.
class ScalarMwiStage {
 public:
  ScalarMwiStage(int window, int out_shift, ArithmeticUnit& unit)
      : window_(static_cast<std::size_t>(window), 0), out_shift_(out_shift), unit_(&unit) {}

  i32 process(i32 x) {
    window_[head_] = x;
    head_ = (head_ + 1) % window_.size();
    std::vector<i64> terms;
    terms.reserve(window_.size());
    std::size_t idx = head_;  // oldest element
    for (std::size_t i = 0; i < window_.size(); ++i) {
      terms.push_back(window_[idx]);
      idx = (idx + 1) % window_.size();
    }
    return static_cast<i32>(saturate_i32(tree_sum(terms, *unit_) >> out_shift_));
  }

 private:
  std::vector<i32> window_;
  std::size_t head_ = 0;
  int out_shift_;
  ArithmeticUnit* unit_;
};

}  // namespace xbs::oracle
