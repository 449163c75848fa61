// Tests for the double-precision Pan-Tompkins reference (tests/pt_oracle.hpp):
// FIR engine, the structure and frequency responses of the integer tap sets,
// reference chain sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "pt_oracle.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::oracle {
namespace {

using pantompkins::kDerTaps;
using pantompkins::kHpfTaps;
using pantompkins::kLpfTaps;

TEST(Fir, ImpulseResponseIsTaps) {
  const std::vector<double> taps = {0.5, -0.25, 0.125};
  const std::vector<double> x = {1, 0, 0, 0};
  const auto y = fir_filter(taps, x);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], -0.25);
  EXPECT_DOUBLE_EQ(y[2], 0.125);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(Fir, StepResponseConvergesToTapSum) {
  const std::vector<double> taps(5, 0.2);
  const auto y = fir_filter(taps, std::vector<double>(10, 1.0));
  EXPECT_NEAR(y.back(), 1.0, 1e-12);
}

TEST(PtCoeffs, LpfStructureMatchesPaper) {
  // 11 taps, triangular, 10 adders / 11 multipliers / 10 registers (§2).
  EXPECT_EQ(kLpfTaps.size(), 11u);
  int sum = 0;
  for (const int t : kLpfTaps) sum += t;
  EXPECT_EQ(sum, 36);  // DC gain before the >>5 normalization
  // Triangular symmetry.
  for (std::size_t i = 0; i < kLpfTaps.size(); ++i) {
    EXPECT_EQ(kLpfTaps[i], kLpfTaps[kLpfTaps.size() - 1 - i]);
  }
}

TEST(PtCoeffs, HpfStructureMatchesPaper) {
  // 32 non-zero taps -> 32 multipliers, 31 adders (§4.2); zero DC gain.
  EXPECT_EQ(kHpfTaps.size(), 32u);
  int nonzero = 0, sum = 0;
  for (const int t : kHpfTaps) {
    nonzero += (t != 0) ? 1 : 0;
    sum += t;
  }
  EXPECT_EQ(nonzero, 32);
  EXPECT_EQ(sum, 0);  // perfect DC rejection
  EXPECT_EQ(kHpfTaps[16], 31);
}

TEST(PtCoeffs, DerCoefficientMagnitudes) {
  // Magnitudes 2 and 1 only (§4.2).
  for (const int t : kDerTaps) EXPECT_LE(std::abs(t), 2);
  EXPECT_EQ(kDerTaps[0], 2);
  EXPECT_EQ(kDerTaps[4], -2);
}

TEST(FrequencyResponse, LpfPassesLowBlocksHigh) {
  const auto taps = normalized_taps(kLpfTaps, 36.0);
  const double dc = magnitude_response(taps, 0.0, 200.0);
  const double at5 = magnitude_response(taps, 5.0, 200.0);
  const double at40 = magnitude_response(taps, 40.0, 200.0);
  EXPECT_NEAR(dc, 1.0, 1e-12);
  EXPECT_GT(at5, 0.8);
  EXPECT_LT(at40, 0.15);
}

TEST(FrequencyResponse, HpfBlocksDcAndBaselineWander) {
  const auto taps = normalized_taps(kHpfTaps, 32.0);
  EXPECT_NEAR(magnitude_response(taps, 0.0, 200.0), 0.0, 1e-12);
  EXPECT_LT(magnitude_response(taps, 0.3, 200.0), 0.12);  // baseline wander
  EXPECT_GT(magnitude_response(taps, 8.0, 200.0), 0.8);   // QRS band
}

TEST(FrequencyResponse, DifferentiatorIsLinearInLowBand) {
  const auto taps = normalized_taps(kDerTaps, 8.0);
  // |H(f)| approximately proportional to f in the low band (the response
  // flattens toward 30 Hz, so test well inside the linear region).
  const double h5 = magnitude_response(taps, 5.0, 200.0);
  const double h10 = magnitude_response(taps, 10.0, 200.0);
  EXPECT_NEAR(h10 / h5, 2.0, 0.25);
}

TEST(Reference, ChainShapesSane) {
  // A 2 Hz sine survives the LPF but dies in the HPF passband edge; MWI is
  // non-negative by construction.
  std::vector<double> x;
  for (int i = 0; i < 2000; ++i)
    x.push_back(std::sin(2.0 * std::numbers::pi * 2.0 * i / 200.0));
  const PtReferenceOutput out = pt_reference_chain(x);
  ASSERT_EQ(out.mwi.size(), x.size());
  for (const double v : out.mwi) EXPECT_GE(v, 0.0);
  // LPF keeps the 2 Hz component.
  double lpf_rms = 0, hpf_rms = 0;
  for (std::size_t i = 500; i < x.size(); ++i) {
    lpf_rms += out.lpf[i] * out.lpf[i];
    hpf_rms += out.hpf[i] * out.hpf[i];
  }
  EXPECT_GT(lpf_rms, 10.0 * hpf_rms);  // HPF attenuates 2 Hz strongly
}

}  // namespace
}  // namespace xbs::oracle
