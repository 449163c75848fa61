// Quickstart — the five-minute tour of the XBioSiP library:
//   1. synthesize an ECG recording (the NSRDB-substitute substrate),
//   2. digitize it with the 200 Hz / 16-bit front-end,
//   3. run the fixed-point Pan-Tompkins pipeline (accurate datapath),
//      both ways: whole-record batch and chunked streaming (bit-identical),
//   4. inspect the detected heartbeats against the generator's ground truth.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "xbs/ecg/adc.hpp"
#include "xbs/ecg/noise.hpp"
#include "xbs/ecg/template_gen.hpp"
#include "xbs/metrics/peaks.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/stream/session.hpp"

int main() {
  using namespace xbs;

  // 1. One minute of synthetic normal sinus rhythm at 74 bpm, with the
  //    standard contamination (baseline wander, mains, EMG, motion).
  ecg::TemplateEcgParams params;
  params.hr_bpm = 74.0;
  ecg::EcgRecord analog = ecg::generate_template_ecg(params, 12000, /*seed=*/2024);
  Rng noise_rng(7);
  ecg::add_standard_noise(analog, noise_rng);
  std::printf("Generated %.0f s of ECG at %.0f bpm (%zu annotated beats)\n",
              analog.duration_s(), analog.mean_hr_bpm(), analog.r_peaks.size());

  // 2. Digitize (16-bit ADC, 18000 counts/mV full-scale window).
  const ecg::DigitizedRecord rec = ecg::AdcFrontEnd{}.digitize(analog);

  // 3. Run the pipeline. PipelineConfig::accurate() is the exact datapath;
  //    see the approximate_pipeline example for the approximate one.
  const pantompkins::PanTompkinsPipeline pipeline;
  const pantompkins::PipelineResult result = pipeline.run(rec.adu);

  // 4. Score against ground truth.
  const auto match = metrics::match_peaks(rec.r_peaks, result.detection.peaks,
                                          metrics::default_tolerance_samples(rec.fs_hz));
  std::printf("Detected %zu beats: sensitivity %.2f%%, PPV %.2f%%, accuracy %.2f%%\n",
              result.detection.peaks.size(), match.sensitivity_pct(), match.ppv_pct(),
              match.detection_accuracy_pct());

  // Instantaneous heart rate from the detected RR intervals.
  std::printf("\nFirst ten detected beats (sample index -> time, instantaneous HR):\n");
  for (std::size_t i = 1; i < result.detection.peaks.size() && i <= 10; ++i) {
    const double rr_s =
        static_cast<double>(result.detection.peaks[i] - result.detection.peaks[i - 1]) /
        rec.fs_hz;
    std::printf("  beat %2zu @ sample %5zu (t=%6.2f s)  HR %.1f bpm\n", i,
                result.detection.peaks[i],
                static_cast<double>(result.detection.peaks[i]) / rec.fs_hz, 60.0 / rr_s);
  }

  // 5. The same pipeline as a *streaming* session: push quarter-second
  //    chunks as a wearable would, receive QRS events online. For any
  //    chunking the decisions are bit-identical to the batch run above.
  stream::Session session(stream::SessionSpec{});
  std::size_t live_beats = 0;
  const std::size_t chunk = static_cast<std::size_t>(rec.fs_hz / 4.0);
  for (std::size_t at = 0; at < rec.adu.size(); at += chunk) {
    const std::size_t len = std::min(chunk, rec.adu.size() - at);
    for (const stream::Event& ev :
         session.push(std::span<const i32>(rec.adu).subspan(at, len))) {
      live_beats += ev.is_beat() ? 1 : 0;
    }
  }
  for (const stream::Event& ev : session.flush()) live_beats += ev.is_beat() ? 1 : 0;
  const bool identical = session.detection().peaks == result.detection.peaks;
  std::printf("\nStreaming the same record in %zu-sample chunks: %zu online QRS events, "
              "peak list %s the batch run.\n",
              chunk, live_beats, identical ? "identical to" : "DIFFERS from");
  return identical ? 0 : 1;
}
