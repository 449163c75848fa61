/// \file evaluator.hpp
/// \brief Behavioural quality evaluation of candidate designs — the
/// Evaluate() step of Algorithm 1, run on the bit-accurate pipeline.
///
/// The methodology evaluates quality twice (paper §4): after data
/// pre-processing (signal quality of the HPF output, PSNR or SSIM) and after
/// signal processing (peak-detection accuracy). Each evaluator owns its
/// workload records, caches the accurate reference, and counts evaluations —
/// the count drives the Fig. 11 exploration-time analysis.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "xbs/ecg/record.hpp"
#include "xbs/explore/design.hpp"
#include "xbs/explore/stage_cache.hpp"

namespace xbs::explore {

/// Interface: higher return value = better quality.
class QualityEvaluator {
 public:
  virtual ~QualityEvaluator() = default;

  /// Evaluate the quality metric of a design (absent stages accurate).
  [[nodiscard]] double evaluate(const Design& d) {
    ++evaluations_;
    return evaluate_impl(d);
  }

  [[nodiscard]] virtual std::string_view metric_name() const noexcept = 0;
  /// 64-bit: large exhaustive sweeps (16^5 designs x records x repeats)
  /// overflow an int counter.
  [[nodiscard]] i64 evaluations() const noexcept { return evaluations_; }
  void reset_evaluations() noexcept { evaluations_ = 0; }

  /// Stage-cache activity, when this evaluator memoizes pipeline stages
  /// (both built-in evaluators do); nullptr otherwise. The built-in
  /// evaluators sum their runner's per-record counters on each call, so read
  /// through the pointer at once, between evaluations.
  [[nodiscard]] virtual const StageCacheStats* cache_stats() const noexcept {
    return nullptr;
  }

 protected:
  [[nodiscard]] virtual double evaluate_impl(const Design& d) = 0;

 private:
  i64 evaluations_ = 0;
};

/// The accurate per-record HPF reference signals a PreprocPsnrEvaluator
/// compares against — computed once and shared between the per-shard
/// evaluators of a parallel exploration.
using SharedPsnrReference = std::shared_ptr<const std::vector<std::vector<double>>>;

/// Compute the accurate reference for a workload (one accurate pipeline run
/// per record).
[[nodiscard]] SharedPsnrReference make_psnr_reference(
    const std::vector<ecg::DigitizedRecord>& records);

/// Pre-processing quality stage: mean PSNR (dB) of the approximate HPF
/// output against the accurate HPF output across the workload records.
class PreprocPsnrEvaluator final : public QualityEvaluator {
 public:
  explicit PreprocPsnrEvaluator(std::vector<ecg::DigitizedRecord> records);
  /// Shared-workload construction (parallel shards): records and the
  /// accurate reference are shared immutably; pass a null reference to
  /// compute it locally.
  explicit PreprocPsnrEvaluator(SharedRecords records,
                                SharedPsnrReference reference = nullptr);
  ~PreprocPsnrEvaluator() override;

  [[nodiscard]] std::string_view metric_name() const noexcept override { return "PSNR [dB]"; }
  [[nodiscard]] const StageCacheStats* cache_stats() const noexcept override;

  /// Mean SSIM of the same comparison (reported alongside PSNR).
  [[nodiscard]] double ssim_of(const Design& d) const;

 protected:
  [[nodiscard]] double evaluate_impl(const Design& d) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Final quality stage: aggregate peak-detection accuracy (%) across the
/// workload records, with an optional fixed base design (the pre-processing
/// configuration chosen earlier) merged under every candidate.
///
/// An evaluation runs its records through for_each_record (parallel.hpp):
/// on a thread of a multi-thread design_generation_batch the batch's other
/// threads may run some of them, each on this evaluator's runner, and
/// everywhere else they run in order on the calling thread. Each record's
/// counts go to their own slot and are summed in record order, so the
/// quality, last_counts() and cache_stats() do not depend on which thread
/// ran which record.
class AccuracyEvaluator final : public QualityEvaluator {
 public:
  AccuracyEvaluator(std::vector<ecg::DigitizedRecord> records, Design base = {});
  /// Shared-workload construction (parallel shards): the records — including
  /// the ground-truth r_peaks the accuracy is scored against — are shared
  /// immutably across evaluators.
  explicit AccuracyEvaluator(SharedRecords records, Design base = {});
  ~AccuracyEvaluator() override;

  [[nodiscard]] std::string_view metric_name() const noexcept override {
    return "Peak detection accuracy [%]";
  }
  [[nodiscard]] const StageCacheStats* cache_stats() const noexcept override;

  /// Aggregate counts of the last evaluation (for misclassification drill-in).
  struct Counts {
    int true_positives = 0;
    int false_positives = 0;
    int false_negatives = 0;
    int truth = 0;
  };
  [[nodiscard]] Counts last_counts() const noexcept;

 protected:
  [[nodiscard]] double evaluate_impl(const Design& d) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xbs::explore
