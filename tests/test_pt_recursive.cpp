// Equivalence tests: the original recursive (IIR) Pan & Tompkins 1985 filter
// forms vs the FIR expansions the paper's hardware implements. This pins the
// FIR tap derivation (xbs/pantompkins/stages.hpp) to the original publication.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "pt_oracle.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::oracle {
namespace {

std::vector<double> random_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> x;
  x.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back(rng.gaussian(0.0, 1000.0) +
                3000.0 * std::sin(2.0 * std::numbers::pi * 7.0 * static_cast<double>(i) / 200.0));
  }
  return x;
}

std::vector<double> unnormalized_taps(std::span<const int> taps) {
  return std::vector<double>(taps.begin(), taps.end());
}

TEST(PtRecursive, LpfEquivalentToTriangularFir) {
  // H(z) = (1 - z^-6)^2 / (1 - z^-1)^2 == [1,2,3,4,5,6,5,4,3,2,1].
  const auto x = random_signal(2000, 11);
  const auto iir = pt_recursive_lpf(x);
  const auto fir_y = fir_filter(unnormalized_taps(pantompkins::kLpfTaps), x);
  ASSERT_EQ(iir.size(), fir_y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(iir[i], fir_y[i], 1e-6 * std::max(1.0, std::abs(fir_y[i]))) << i;
  }
}

TEST(PtRecursive, HpfEquivalentToAllpassMinusMa) {
  // y[n] = y[n-1] - x[n] + 32 x[n-16] - 32 x[n-17] + x[n-32]
  //   == 32 x[n-16] - sum_{i=0..31} x[n-i]  (the kHpfTaps FIR).
  const auto x = random_signal(2000, 12);
  const auto iir = pt_recursive_hpf(x);
  const auto fir_y = fir_filter(unnormalized_taps(pantompkins::kHpfTaps), x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(iir[i], fir_y[i], 1e-5 * std::max(1.0, std::abs(fir_y[i]))) << i;
  }
}

TEST(PtRecursive, LpfDcGain36) {
  std::vector<double> ones(200, 1.0);
  const auto y = pt_recursive_lpf(ones);
  EXPECT_NEAR(y.back(), 36.0, 1e-9);
}

TEST(PtRecursive, HpfRejectsDc) {
  std::vector<double> ones(400, 1.0);
  const auto y = pt_recursive_hpf(ones);
  EXPECT_NEAR(y.back(), 0.0, 1e-9);
}

}  // namespace
}  // namespace xbs::oracle
