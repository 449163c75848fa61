// Tests for the synthetic ECG substrate (NSRDB substitute).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "xbs/ecg/adc.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/ecg/noise.hpp"
#include "xbs/ecg/template_gen.hpp"

namespace xbs::ecg {
namespace {

TEST(TemplateGen, AnnotationsSitOnLocalMaxima) {
  TemplateEcgParams p;
  const EcgRecord rec = generate_template_ecg(p, 20000, 42);
  ASSERT_GT(rec.r_peaks.size(), 50u);
  for (const std::size_t r : rec.r_peaks) {
    // R peak is the local maximum within +/- 20 samples, up to the tiny
    // shift the preceding beat's T-wave tail can add to a neighbour sample.
    double local_max = -1e9;
    for (std::size_t i = (r > 20 ? r - 20 : 0); i <= std::min(r + 20, rec.mv.size() - 1); ++i) {
      local_max = std::max(local_max, rec.mv[i]);
    }
    EXPECT_NEAR(rec.mv[r], local_max, 0.02) << "r=" << r;
  }
}

TEST(TemplateGen, HeartRateMatchesParameter) {
  TemplateEcgParams p;
  p.hr_bpm = 72.0;
  const EcgRecord rec = generate_template_ecg(p, 40000, 7);
  EXPECT_NEAR(rec.mean_hr_bpm(), 72.0, 3.0);
}

TEST(TemplateGen, DeterministicUnderSeed) {
  TemplateEcgParams p;
  const EcgRecord a = generate_template_ecg(p, 5000, 99);
  const EcgRecord b = generate_template_ecg(p, 5000, 99);
  ASSERT_EQ(a.mv.size(), b.mv.size());
  for (std::size_t i = 0; i < a.mv.size(); ++i) EXPECT_DOUBLE_EQ(a.mv[i], b.mv[i]);
  EXPECT_EQ(a.r_peaks, b.r_peaks);
}

TEST(TemplateGen, RrVariabilityPresent) {
  TemplateEcgParams p;
  p.hrv_rel_sd = 0.04;
  const EcgRecord rec = generate_template_ecg(p, 40000, 5);
  std::vector<double> rr;
  for (std::size_t i = 1; i < rec.r_peaks.size(); ++i) {
    rr.push_back(static_cast<double>(rec.r_peaks[i] - rec.r_peaks[i - 1]));
  }
  double mean = 0;
  for (const double v : rr) mean += v;
  mean /= static_cast<double>(rr.size());
  double var = 0;
  for (const double v : rr) var += (v - mean) * (v - mean);
  var /= static_cast<double>(rr.size());
  EXPECT_GT(std::sqrt(var) / mean, 0.015);  // CV of RR > 1.5 %
}

TEST(TemplateGen, EctopicBeatsAnnotatedAndPremature) {
  TemplateEcgParams p;
  p.ectopic_probability = 0.15;
  const EcgRecord ect = generate_template_ecg(p, 40000, 11);
  p.ectopic_probability = 0.0;
  const EcgRecord nsr = generate_template_ecg(p, 40000, 11);
  // Prematurity shortens some RR intervals well below the NSR minimum.
  auto min_rr = [](const EcgRecord& r) {
    std::size_t best = SIZE_MAX;
    for (std::size_t i = 1; i < r.r_peaks.size(); ++i) {
      best = std::min(best, r.r_peaks[i] - r.r_peaks[i - 1]);
    }
    return best;
  };
  EXPECT_LT(min_rr(ect), min_rr(nsr));
}

TEST(TemplateGen, NoBeatsInBoundaryGuard) {
  TemplateEcgParams p;
  const EcgRecord rec = generate_template_ecg(p, 20000, 3);
  // No annotation within the last 0.3 s (60 samples) — undetectable region.
  EXPECT_LT(rec.r_peaks.back(), 20000u - 60u);
}

TEST(Noise, AddsPowerWithoutResizing) {
  TemplateEcgParams p;
  EcgRecord rec = generate_template_ecg(p, 4000, 1);
  const EcgRecord clean = rec;
  Rng rng(2);
  add_baseline_wander(rec, 0.1, rng);
  add_powerline(rec, 0.05, 50.0, rng);
  add_emg_noise(rec, 0.02, rng);
  add_motion_artifacts(rec, 0.2, 2.0, rng);
  ASSERT_EQ(rec.mv.size(), clean.mv.size());
  double diff = 0;
  for (std::size_t i = 0; i < rec.mv.size(); ++i) diff += std::abs(rec.mv[i] - clean.mv[i]);
  EXPECT_GT(diff / static_cast<double>(rec.mv.size()), 0.01);
  EXPECT_EQ(rec.r_peaks, clean.r_peaks);  // annotations untouched
}

TEST(Adc, GainAndSaturation) {
  EcgRecord rec;
  rec.fs_hz = 200.0;
  rec.mv = {0.0, 1.0, -1.0, 100.0, -100.0};
  const AdcFrontEnd adc;  // 18000 ADU/mV, 16 bits
  const DigitizedRecord d = adc.digitize(rec);
  EXPECT_EQ(d.adu[0], 0);
  EXPECT_EQ(d.adu[1], 18000);
  EXPECT_EQ(d.adu[2], -18000);
  EXPECT_EQ(d.adu[3], 32767);   // saturated
  EXPECT_EQ(d.adu[4], -32768);  // saturated
}

TEST(Dataset, DeterministicAndDistinct) {
  const DigitizedRecord a0 = nsrdb_like_digitized(0, 4000);
  const DigitizedRecord a0_again = nsrdb_like_digitized(0, 4000);
  const DigitizedRecord a1 = nsrdb_like_digitized(1, 4000);
  EXPECT_EQ(a0.adu, a0_again.adu);
  EXPECT_NE(a0.adu, a1.adu);
  EXPECT_NE(a0.name, a1.name);
}

TEST(Dataset, EighteenRecordsWithVariedRates) {
  const auto ds = nsrdb_like_dataset(kNsrdbSubjects, 4000);
  ASSERT_EQ(ds.size(), 18u);
  double min_beats = 1e9, max_beats = 0;
  for (const auto& rec : ds) {
    EXPECT_FALSE(rec.r_peaks.empty());
    min_beats = std::min(min_beats, static_cast<double>(rec.r_peaks.size()));
    max_beats = std::max(max_beats, static_cast<double>(rec.r_peaks.size()));
  }
  EXPECT_GT(max_beats, min_beats);  // heart-rate diversity across subjects
}

TEST(Dataset, IndexOutOfRangeThrows) {
  EXPECT_THROW(nsrdb_like_record(-1), std::invalid_argument);
  EXPECT_THROW(nsrdb_like_record(18), std::invalid_argument);
}

}  // namespace
}  // namespace xbs::ecg
