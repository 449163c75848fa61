#include "xbs/explore/evaluator.hpp"

#include <algorithm>

#include "xbs/explore/parallel.hpp"
#include "xbs/metrics/peaks.hpp"
#include "xbs/metrics/signal_quality.hpp"
#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::explore {
namespace {

std::vector<double> to_double(std::span<const i32> v) {
  return std::vector<double>(v.begin(), v.end());
}

}  // namespace

SharedPsnrReference make_psnr_reference(const std::vector<ecg::DigitizedRecord>& records) {
  // References come from a plain pipeline run so the memo caches stay primed
  // for candidate configurations only.
  const pantompkins::PanTompkinsPipeline accurate;
  auto ref = std::make_shared<std::vector<std::vector<double>>>();
  ref->reserve(records.size());
  for (const ecg::DigitizedRecord& rec : records) {
    ref->push_back(to_double(accurate.run_filters(rec.adu).hpf));
  }
  return ref;
}

struct PreprocPsnrEvaluator::Impl {
  MemoizedPipelineRunner runner;
  SharedPsnrReference ref_hpf;  ///< accurate HPF output per record (shared)
  StageCacheStats stats;        ///< the runner's counters as last read

  Impl(SharedRecords recs, SharedPsnrReference ref)
      : runner(std::move(recs)),
        ref_hpf(ref != nullptr ? std::move(ref) : make_psnr_reference(*runner.records())) {}

  template <typename Metric>
  [[nodiscard]] double mean_metric(const Design& d, Metric metric) {
    const pantompkins::PipelineConfig cfg = to_pipeline_config(d);
    double total = 0.0;
    for (std::size_t i = 0; i < runner.num_records(); ++i) {
      const auto& out = runner.run_filters(i, cfg);
      total += metric((*ref_hpf)[i], to_double(out.hpf));
    }
    return total / static_cast<double>(runner.num_records());
  }
};

PreprocPsnrEvaluator::PreprocPsnrEvaluator(std::vector<ecg::DigitizedRecord> records)
    : PreprocPsnrEvaluator(share_records(std::move(records))) {}

PreprocPsnrEvaluator::PreprocPsnrEvaluator(SharedRecords records, SharedPsnrReference reference)
    : impl_(std::make_unique<Impl>(std::move(records), std::move(reference))) {}

PreprocPsnrEvaluator::~PreprocPsnrEvaluator() = default;

double PreprocPsnrEvaluator::evaluate_impl(const Design& d) {
  return impl_->mean_metric(d, [](const auto& ref, const auto& test) {
    return metrics::psnr_db(ref, test);
  });
}

double PreprocPsnrEvaluator::ssim_of(const Design& d) const {
  return impl_->mean_metric(d, [](const auto& ref, const auto& test) {
    return metrics::ssim(ref, test);
  });
}

const StageCacheStats* PreprocPsnrEvaluator::cache_stats() const noexcept {
  impl_->stats = impl_->runner.stats();
  return &impl_->stats;
}

struct AccuracyEvaluator::Impl {
  MemoizedPipelineRunner runner;
  Design base;
  Counts last{};
  StageCacheStats stats;  ///< the runner's counters as last read

  Impl(SharedRecords recs, Design b) : runner(std::move(recs)), base(std::move(b)) {}
};

AccuracyEvaluator::AccuracyEvaluator(std::vector<ecg::DigitizedRecord> records, Design base)
    : AccuracyEvaluator(share_records(std::move(records)), std::move(base)) {}

AccuracyEvaluator::AccuracyEvaluator(SharedRecords records, Design base)
    : impl_(std::make_unique<Impl>(std::move(records), std::move(base))) {}

AccuracyEvaluator::~AccuracyEvaluator() = default;

double AccuracyEvaluator::evaluate_impl(const Design& d) {
  const pantompkins::PipelineConfig cfg = to_pipeline_config(merge(impl_->base, d));
  MemoizedPipelineRunner& runner = impl_->runner;
  // One slot per record, summed in record order: the counts do not depend on
  // which thread ran which record.
  std::vector<Counts> per_record(runner.num_records());
  for_each_record(per_record.size(), [&](std::size_t i) {
    const ecg::DigitizedRecord& rec = runner.record(i);
    const auto m = metrics::match_peaks(rec.r_peaks, runner.run(i, cfg).detection.peaks,
                                        metrics::default_tolerance_samples(rec.fs_hz));
    per_record[i] = Counts{m.true_positives, m.false_positives, m.false_negatives,
                           m.truth_count()};
  });
  Counts c{};
  for (const Counts& r : per_record) {
    c.true_positives += r.true_positives;
    c.false_positives += r.false_positives;
    c.false_negatives += r.false_negatives;
    c.truth += r.truth;
  }
  impl_->last = c;
  if (c.truth == 0) return c.false_positives == 0 ? 100.0 : 0.0;
  const double err = static_cast<double>(c.false_negatives + c.false_positives) / c.truth;
  return 100.0 * std::max(0.0, 1.0 - err);
}

const StageCacheStats* AccuracyEvaluator::cache_stats() const noexcept {
  impl_->stats = impl_->runner.stats();
  return &impl_->stats;
}

AccuracyEvaluator::Counts AccuracyEvaluator::last_counts() const noexcept { return impl_->last; }

}  // namespace xbs::explore
