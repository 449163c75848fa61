// Tests for the adaptive-threshold QRS decision logic. The DetectorOracle
// cases compare the library's OnlineDetector with the reference copy of the
// decision logic in detector_oracle.hpp, event for event.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "detector_oracle.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/adc.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/ecg/template_gen.hpp"
#include "xbs/metrics/peaks.hpp"
#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::pantompkins {
namespace {

DetectionResult run_detection(const ecg::DigitizedRecord& rec) {
  const PanTompkinsPipeline pipe;
  return pipe.run(rec.adu).detection;
}

TEST(Detector, CleanRecordDetectedPerfectly) {
  ecg::TemplateEcgParams p;
  ecg::EcgRecord rec = ecg::generate_template_ecg(p, 20000, 1234);
  const auto digit = ecg::AdcFrontEnd{}.digitize(rec);
  const auto det = run_detection(digit);
  const auto m = metrics::match_peaks(digit.r_peaks, det.peaks, 30);
  EXPECT_EQ(m.false_negatives, 0);
  EXPECT_EQ(m.false_positives, 0);
}

TEST(Detector, NoisyDatasetAbove99Percent) {
  int fn = 0, fp = 0, truth = 0;
  for (int i = 0; i < 6; ++i) {
    const auto rec = ecg::nsrdb_like_digitized(i, 10000);
    const auto det = run_detection(rec);
    const auto m = metrics::match_peaks(rec.r_peaks, det.peaks, 30);
    fn += m.false_negatives;
    fp += m.false_positives;
    truth += m.truth_count();
  }
  EXPECT_GE(truth, 200);
  EXPECT_LE(fn + fp, truth / 100);  // >= 99 % aggregate accuracy
}

TEST(Detector, TallTWavesDoNotDouble) {
  // Exaggerated T waves must not produce double detections (slope rule).
  ecg::TemplateEcgParams p;
  p.t.amplitude_mv = 0.55;
  p.t.width_s = 0.07;
  const ecg::EcgRecord rec = ecg::generate_template_ecg(p, 20000, 77);
  const auto digit = ecg::AdcFrontEnd{}.digitize(rec);
  const auto det = run_detection(digit);
  const auto m = metrics::match_peaks(digit.r_peaks, det.peaks, 30);
  EXPECT_EQ(m.false_positives, 0);
  EXPECT_LE(m.false_negatives, 1);
}

TEST(Detector, RefractorySuppressesAdjacentMarks) {
  const auto rec = ecg::nsrdb_like_digitized(2, 10000);
  const auto det = run_detection(rec);
  for (std::size_t i = 1; i < det.peaks.size(); ++i) {
    EXPECT_GE(det.peaks[i] - det.peaks[i - 1], 40u) << i;  // 200 ms at 200 Hz
  }
}

TEST(Detector, TraceCoversDecisions) {
  const auto rec = ecg::nsrdb_like_digitized(0, 10000);
  const auto det = run_detection(rec);
  int accepted = 0;
  for (const auto& ev : det.trace) {
    if (ev.decision == PeakDecision::Accepted ||
        ev.decision == PeakDecision::SearchBackRecovered) {
      ++accepted;
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(accepted), det.peaks.size());
}

TEST(Detector, SizeMismatchThrows) {
  std::vector<i32> a(100, 0), b(99, 0);
  EXPECT_THROW((void)detect_qrs(a, b, a), std::invalid_argument);
}

TEST(Detector, EmptySignalYieldsNothing) {
  std::vector<i32> empty;
  const auto det = detect_qrs(empty, empty, empty);
  EXPECT_TRUE(det.peaks.empty());
}

TEST(Detector, AmplitudeStepAdapts) {
  // Halve the signal amplitude midway: adaptive thresholds must keep
  // detecting beats in the quieter half.
  ecg::TemplateEcgParams p;
  ecg::EcgRecord rec = ecg::generate_template_ecg(p, 30000, 5);
  for (std::size_t i = 15000; i < rec.mv.size(); ++i) rec.mv[i] *= 0.5;
  const auto digit = ecg::AdcFrontEnd{}.digitize(rec);
  const auto det = run_detection(digit);
  // Count detections in the second half.
  int truth_late = 0, det_late = 0;
  for (const auto r : digit.r_peaks) truth_late += (r >= 16000) ? 1 : 0;
  for (const auto d : det.peaks) det_late += (d >= 16000) ? 1 : 0;
  EXPECT_GE(det_late, truth_late - 2);
}

TEST(Detector, ColdResetIsBitIdenticalToFreshWarmResetIsNot) {
  // The reset contract at the detector layer: WarmStart::Cold reproduces a
  // freshly constructed detector bit for bit; WarmStart::KeepThresholds
  // skips the 2 s training window because the trained SPK/NPK survive.
  const auto rec = ecg::nsrdb_like_digitized(1, 6000);
  const PanTompkinsPipeline pipe;
  const auto sig = pipe.run(rec.adu);

  OnlineDetector det;
  (void)det.push(sig.mwi, sig.hpf, rec.adu);
  (void)det.flush();
  ASSERT_FALSE(det.result().peaks.empty());

  // Cold: the full record replays to the exact fresh-run result.
  det.reset();  // WarmStart::Cold is the default
  (void)det.push(sig.mwi, sig.hpf, rec.adu);
  (void)det.flush();
  const auto fresh = detect_qrs(sig.mwi, sig.hpf, rec.adu);
  EXPECT_EQ(det.result().peaks, fresh.peaks);
  ASSERT_EQ(det.result().trace.size(), fresh.trace.size());
  for (std::size_t i = 0; i < fresh.trace.size(); ++i) {
    EXPECT_EQ(det.result().trace[i], fresh.trace[i]) << "trace[" << i << "]";
  }

  // Warm: only the head of the record (inside the training window) arrives
  // after the reset. A cold/fresh detector emits nothing there; the warm one
  // detects beats immediately. The streamed prefix stays strictly below the
  // 2 s training target so the comparison isolates the carried thresholds.
  const std::size_t early = 300;
  det.reset(WarmStart::KeepThresholds);
  EXPECT_FALSE(det.flushed());
  std::size_t warm_beats = 0;
  for (const PeakEvent& ev : det.push(std::span<const i32>(sig.mwi).subspan(0, early),
                                      std::span<const i32>(sig.hpf).subspan(0, early),
                                      std::span<const i32>(rec.adu).subspan(0, early))) {
    warm_beats += (ev.decision == PeakDecision::Accepted ||
                   ev.decision == PeakDecision::SearchBackRecovered)
                      ? 1
                      : 0;
  }
  EXPECT_GT(warm_beats, 0u);

  OnlineDetector cold;
  const auto cold_evs = cold.push(std::span<const i32>(sig.mwi).subspan(0, early),
                                  std::span<const i32>(sig.hpf).subspan(0, early),
                                  std::span<const i32>(rec.adu).subspan(0, early));
  EXPECT_TRUE(cold_evs.empty());  // untrained: still inside the 2 s window
}

// ------------------------------------------------- against the oracle

/// One aligned (MWI, HPF, raw) input triple.
struct Streams {
  std::vector<i32> mwi, hpf, raw;
};

/// Split sizes for a record: fixed size (0 = whole record) or, with a seed,
/// seeded ragged lengths in [1, 97].
std::vector<std::size_t> chunk_plan(std::size_t n, std::size_t fixed, u64 seed) {
  std::vector<std::size_t> plan;
  if (fixed == 0 && seed == 0) {
    plan.push_back(n);
    return plan;
  }
  Rng rng(seed);
  for (std::size_t at = 0; at < n;) {
    const std::size_t want =
        fixed > 0 ? fixed : static_cast<std::size_t>(rng.uniform_int(1, 97));
    plan.push_back(std::min(want, n - at));
    at += plan.back();
  }
  return plan;
}

/// Fixed sizes 1 / 7 / 64 / 1024, the whole record, and a seeded ragged
/// split.
const std::array<std::pair<std::size_t, u64>, 6> kPlans = {
    {{1, 0}, {7, 0}, {64, 0}, {1024, 0}, {0, 0}, {0, 4242}}};

std::string describe(const PeakEvent& e) {
  return "{mwi " + std::to_string(e.mwi_index) + "=" + std::to_string(e.mwi_value) + " hpf " +
         std::to_string(e.hpf_index) + "=" + std::to_string(e.hpf_value) + " raw " +
         std::to_string(e.raw_index) + " decision " +
         std::to_string(static_cast<int>(e.decision)) + "}";
}

testing::AssertionResult same_events(std::span<const PeakEvent> got,
                                     std::span<const PeakEvent> want, const std::string& where) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure() << where << ": " << got.size() << " events, oracle "
                                       << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      return testing::AssertionFailure() << where << " event " << i << ": " << describe(got[i])
                                         << ", oracle " << describe(want[i]);
    }
  }
  return testing::AssertionSuccess();
}

/// Where a run re-arms both detectors: before the first chunk that starts at
/// or after sample \p at of the input.
struct ResetAt {
  std::size_t at = 0;
  WarmStart warm = WarmStart::Cold;
};

/// Push \p s through the library detector and the oracle in the chunks of
/// \p plan (re-arming both at \p reset), then flush. Every span a call
/// returns and the final result() must match event for event.
testing::AssertionResult matches_oracle(const Streams& s, const DetectorParams& p,
                                        const std::vector<std::size_t>& plan,
                                        std::optional<ResetAt> reset = std::nullopt) {
  OnlineDetector lib(p);
  oracle::ReferenceDetector ref(p);
  std::size_t at = 0;
  for (std::size_t call = 0; call < plan.size(); ++call) {
    if (reset && at >= reset->at) {
      lib.reset(reset->warm);
      ref.reset(reset->warm);
      reset.reset();
    }
    const std::size_t len = plan[call];
    const auto part = [&](const std::vector<i32>& v) {
      return std::span<const i32>(v).subspan(at, len);
    };
    auto same = same_events(lib.push(part(s.mwi), part(s.hpf), part(s.raw)),
                            ref.push(part(s.mwi), part(s.hpf), part(s.raw)),
                            "push " + std::to_string(call) + " at " + std::to_string(at));
    if (!same) return same;
    at += len;
  }
  auto same = same_events(lib.flush(), ref.flush(), "flush");
  if (!same) return same;
  if (lib.result().peaks != ref.result().peaks) {
    return testing::AssertionFailure() << "result().peaks differ";
  }
  return same_events(lib.result().trace, ref.result().trace, "result().trace");
}

/// Synthetic inputs that stress the tie rules, the arithmetic range and the
/// decision paths the NSRDB-like records rarely reach.
enum class Synth {
  Ties,              ///< MWI in {0..4} x 1000, HPF in {0, 1, 2}, raw in {0, 1}
  Int32Alternating,  ///< every stream alternates INT32_MIN / INT32_MAX
  Int32Mixed,        ///< each sample one of INT32_MIN, INT32_MAX, 0 or small
  Beats,             ///< QRS-like bumps with T waves, weak and missing beats
};
constexpr std::array<Synth, 4> kSynths = {Synth::Ties, Synth::Int32Alternating,
                                          Synth::Int32Mixed, Synth::Beats};

/// Add a triangular bump of height \p amp and half-width \p hw at \p at.
void bump(std::vector<i32>& v, std::ptrdiff_t at, i64 amp, i64 hw) {
  for (std::ptrdiff_t i = at - hw; i <= at + hw; ++i) {
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(v.size())) continue;
    const i64 h = amp - amp * std::abs(i - at) / (hw + 1);
    auto& dst = v[static_cast<std::size_t>(i)];
    dst = static_cast<i32>(std::max<i64>(dst, h));
  }
}

Streams make_streams(Synth kind, std::size_t n, u64 seed) {
  constexpr i32 lo = std::numeric_limits<i32>::min();
  constexpr i32 hi = std::numeric_limits<i32>::max();
  Rng rng(seed);
  Streams s{std::vector<i32>(n, 0), std::vector<i32>(n, 0), std::vector<i32>(n, 0)};
  const auto pick = [&rng](i64 a, i64 b) { return static_cast<i32>(rng.uniform_int(a, b)); };
  const auto extreme = [&] {
    const std::array<i32, 4> v = {lo, hi, 0, pick(-1000, 1000)};
    return v[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  };
  switch (kind) {
    case Synth::Ties:
      for (std::size_t i = 0; i < n; ++i) {
        s.mwi[i] = 1000 * pick(0, 4);
        s.hpf[i] = pick(0, 2);
        s.raw[i] = pick(0, 1);
      }
      break;
    case Synth::Int32Alternating:
      for (std::size_t i = 0; i < n; ++i) {
        s.mwi[i] = i % 2 == 0 ? lo : hi;
        s.hpf[i] = i % 3 == 0 ? hi : lo;
        s.raw[i] = i % 2 == 0 ? hi : lo;
      }
      break;
    case Synth::Int32Mixed:
      for (std::size_t i = 0; i < n; ++i) {
        s.mwi[i] = extreme();
        s.hpf[i] = extreme();
        s.raw[i] = extreme();
      }
      break;
    case Synth::Beats:
      for (std::size_t i = 0; i < n; ++i) {
        s.mwi[i] = pick(0, 40);
        s.hpf[i] = pick(-30, 30);
        s.raw[i] = pick(-20, 20);
      }
      for (auto at = static_cast<std::ptrdiff_t>(pick(20, 120));
           at < static_cast<std::ptrdiff_t>(n); at += pick(25, 330)) {
        const i64 amp = rng.uniform_int(0, 9) == 0 ? pick(100, 300) : pick(600, 1200);
        const std::ptrdiff_t lag = pick(4, 30);
        bump(s.mwi, at, amp, pick(3, 15));
        bump(s.hpf, at - lag, amp / 2, pick(2, 8));
        bump(s.raw, at - lag - pick(10, 30), amp, pick(1, 6));
        if (rng.uniform_int(0, 1) == 0) bump(s.mwi, at + pick(30, 70), amp / 3, pick(10, 30));
      }
      break;
  }
  return s;
}

/// Non-default constants: refractories 0-2 (every candidate becomes a mark),
/// zero half-widths, lags 0 and 40, a short training window.
std::vector<DetectorParams> param_sets() {
  std::vector<DetectorParams> sets(1);
  for (const int r : {0, 1, 2}) {
    sets.emplace_back().refractory_samples = r;
  }
  DetectorParams zero_hw;
  zero_hw.hpf_search_halfwidth = 0;
  zero_hw.raw_refine_halfwidth = 0;
  sets.push_back(zero_hw);
  for (const int lag : {0, 40}) {
    sets.emplace_back().mwi_hpf_lag_samples = lag;
  }
  DetectorParams quick;
  quick.fs_hz = 50.0;
  quick.refractory_samples = 1;
  quick.t_wave_window_samples = 300;
  quick.alignment_tolerance = 0;
  quick.raw_delay_samples = 0;
  sets.push_back(quick);
  return sets;
}

TEST(DetectorOracle, PaperPipelinesAnyChunkingAndReset) {
  // The exact configuration and the 14 Fig. 12 designs over two seeded
  // records, in every chunking, plus a cold and a warm reset mid-stream.
  std::vector<PipelineConfig> configs = {PipelineConfig::accurate()};
  for (const auto& named : core::fig12_b_configs()) {
    configs.push_back(PipelineConfig::from_lsbs(named.lsbs));
  }
  for (const int seed : {0, 5}) {
    const auto rec = ecg::nsrdb_like_digitized(seed, 3000);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto sig = PanTompkinsPipeline(configs[c]).run(rec.adu);
      const Streams s{sig.mwi, sig.hpf, rec.adu};
      const std::string what = "record " + std::to_string(seed) + " config " + std::to_string(c);
      for (const auto& [fixed, plan_seed] : kPlans) {
        EXPECT_TRUE(matches_oracle(s, {}, chunk_plan(s.mwi.size(), fixed, plan_seed)))
            << what << " chunks " << fixed << "/" << plan_seed;
      }
      const auto ragged = chunk_plan(s.mwi.size(), 0, 17);
      EXPECT_TRUE(matches_oracle(s, {}, ragged, ResetAt{1700, WarmStart::Cold})) << what;
      EXPECT_TRUE(matches_oracle(s, {}, ragged, ResetAt{1700, WarmStart::KeepThresholds}))
          << what;
    }
  }
}

TEST(DetectorOracle, SyntheticSignalsEveryParamSetAndChunking) {
  // Lengths 0-7 (no decision at all), inside the 2 s training window
  // (decided at flush), and long enough for many trims.
  const std::array<std::size_t, 12> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 150, 399, 1000, 6000};
  const auto params = param_sets();
  std::array<int, 5> decisions{};
  for (const Synth kind : kSynths) {
    for (const std::size_t n : lengths) {
      const Streams s = make_streams(kind, n, 1000 * static_cast<u64>(kind) + n);
      for (std::size_t p = 0; p < params.size(); ++p) {
        for (const auto& [fixed, plan_seed] : kPlans) {
          if (fixed == 1 && n > 1000 && p > 0) continue;  // per-sample pushes: default params
          EXPECT_TRUE(matches_oracle(s, params[p], chunk_plan(n, fixed, plan_seed)))
              << "synth " << static_cast<int>(kind) << " n " << n << " params " << p
              << " chunks " << fixed << "/" << plan_seed;
        }
        for (const auto& ev : detect_qrs(s.mwi, s.hpf, s.raw, params[p]).trace) {
          ++decisions[static_cast<std::size_t>(ev.decision)];
        }
      }
    }
  }
  for (std::size_t d = 0; d < decisions.size(); ++d) {
    EXPECT_GT(decisions[d], 0) << "decision " << d << " never reached";
  }
}

TEST(DetectorOracle, LargestAcceptedWindowsRunClean) {
  // Every window and lag at DetectorParams::kMaxWindowSamples: the window
  // sums stay in range, and the searches clamp to the record.
  DetectorParams p;
  p.refractory_samples = DetectorParams::kMaxWindowSamples;
  p.t_wave_window_samples = DetectorParams::kMaxWindowSamples;
  p.mwi_hpf_lag_samples = DetectorParams::kMaxWindowSamples;
  p.alignment_tolerance = DetectorParams::kMaxWindowSamples;
  p.hpf_search_halfwidth = DetectorParams::kMaxWindowSamples;
  p.raw_delay_samples = DetectorParams::kMaxWindowSamples;
  p.raw_refine_halfwidth = DetectorParams::kMaxWindowSamples;
  ASSERT_TRUE(p.valid());
  const Streams s = make_streams(Synth::Beats, 3000, 7);
  for (const auto& [fixed, plan_seed] : kPlans) {
    EXPECT_TRUE(matches_oracle(s, p, chunk_plan(s.mwi.size(), fixed, plan_seed)))
        << "chunks " << fixed << "/" << plan_seed;
  }
  EXPECT_FALSE(detect_qrs(s.mwi, s.hpf, s.raw, p).trace.empty());
}

TEST(DetectorOracle, SeededAdversarialRuns) {
  // Random signal kind, length, constants, chunking and reset per run.
  Rng rng(2024);
  const auto params = param_sets();
  for (int run = 0; run < 1500; ++run) {
    const auto kind = kSynths[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 2500));
    const Streams s = make_streams(kind, n, rng.next_u64());
    DetectorParams p = params[static_cast<std::size_t>(rng.uniform_int(0, 7))];
    p.refractory_samples = static_cast<int>(rng.uniform_int(0, 60));
    p.hpf_search_halfwidth = static_cast<int>(rng.uniform_int(0, 20));
    p.raw_refine_halfwidth = static_cast<int>(rng.uniform_int(0, 12));
    p.mwi_hpf_lag_samples = static_cast<int>(rng.uniform_int(0, 40));
    p.raw_delay_samples = static_cast<int>(rng.uniform_int(0, 30));
    const std::size_t fixed = std::array<std::size_t, 5>{1, 7, 64, 1024, 0}[static_cast<std::size_t>(
        rng.uniform_int(0, 4))];
    const auto plan = chunk_plan(n, fixed, fixed == 0 ? rng.next_u64() | 1 : 0);
    std::optional<ResetAt> reset;
    if (rng.uniform_int(0, 3) == 0) {
      reset = ResetAt{static_cast<std::size_t>(rng.uniform_int(0, static_cast<i64>(n))),
                      rng.uniform_int(0, 1) == 0 ? WarmStart::Cold : WarmStart::KeepThresholds};
    }
    ASSERT_TRUE(matches_oracle(s, p, plan, reset))
        << "run " << run << " synth " << static_cast<int>(kind) << " n " << n;
  }
}

}  // namespace
}  // namespace xbs::pantompkins
