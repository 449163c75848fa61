#include "xbs/pantompkins/stages.hpp"

#include <algorithm>
#include <stdexcept>

#include "xbs/common/fixed.hpp"

namespace xbs::pantompkins {

const StageInventory& stage_inventory(Stage s) noexcept {
  static const std::array<StageInventory, 5> inv = {{
      {Stage::Lpf, "LPF", 10, 11, 10, 16},
      {Stage::Hpf, "HPF", 31, 32, 31, 16},
      {Stage::Der, "DER", 3, 4, 4, 4},
      {Stage::Sqr, "SQR", 0, 1, 0, 8},
      {Stage::Mwi, "MWI", kMwiWindow - 1, 0, kMwiWindow - 1, 16},
  }};
  return inv[static_cast<std::size_t>(s)];
}

// ------------------------------------------------------------------- FirStage

FirStage::FirStage(std::span<const int> taps, int out_shift, arith::Kernel& kernel)
    : taps_(taps.begin(), taps.end()), out_shift_(out_shift), kernel_(&kernel) {
  if (taps.empty()) throw std::invalid_argument("FirStage: empty taps");
  reset();
}

void FirStage::reset() {
  padded_.assign(taps_.size() - 1, 0);
}

void FirStage::process_chunk(std::span<const i32> x, std::vector<i32>& y) {
  const std::size_t n = x.size();
  const std::size_t history = taps_.size() - 1;
  // The chunk goes behind the carried history: the first T-1 elements are
  // the last T-1 inputs oldest-first, element T-1+i is x[i]. Tap j of output
  // i reads offset T-1-j+i — exactly the carried delay line of the
  // per-sample datapath.
  padded_.resize(history + n);
  std::copy(x.begin(), x.end(), padded_.begin() + static_cast<std::ptrdiff_t>(history));
  acc_.resize(n);

  // One batched FIR call: the kernel runs the per-sample accumulation chain
  // (products in tap order, zero taps skipped, chained 32-bit adds — the
  // structure the netlist stage builder emits) and may hoist per-coefficient
  // product rows out of the tap loop.
  kernel_->fir_n(taps_, padded_, acc_);

  // Normalization shift (wiring) and 16-bit inter-stage register.
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<i32>(saturate_to_bits(acc_[i] >> out_shift_, 16));
  }

  // Keep the last T-1 inputs as the next chunk's history.
  padded_.erase(padded_.begin(), padded_.begin() + static_cast<std::ptrdiff_t>(n));
}

// --------------------------------------------------------------- SquarerStage

void SquarerStage::process_chunk(std::span<const i32> x, std::vector<i32>& y) {
  const std::size_t n = x.size();
  in_.resize(n);
  for (std::size_t i = 0; i < n; ++i) in_[i] = saturate_to_bits(x[i], 16);
  // square_n may run in place, so the products overwrite the clamped
  // operands.
  kernel_->square_n(in_, in_);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = static_cast<i32>(in_[i] >> out_shift_);
}

// ------------------------------------------------------------------- MwiStage

MwiStage::MwiStage(int window, int out_shift, arith::Kernel& kernel)
    : window_(static_cast<std::size_t>(window)), out_shift_(out_shift), kernel_(&kernel) {
  if (window < 2) throw std::invalid_argument("MwiStage: window must be >= 2");
  reset();
}

void MwiStage::reset() {
  padded_.assign(window_ - 1, 0);
}

void MwiStage::process_chunk(std::span<const i32> x, std::vector<i32>& y) {
  const std::size_t n = x.size();
  const std::size_t history = window_ - 1;
  // The chunk goes behind the carried history: for output i the window
  // contents oldest-first are term k = padded[i + k] (k = 0..w-1); the first
  // w-1 elements are the last w-1 inputs oldest-first.
  padded_.resize(history + n);
  std::copy(x.begin(), x.end(), padded_.begin() + static_cast<std::ptrdiff_t>(history));

  // One batched window sum: the kernel runs the adder tree of
  // netlist::build_mwi_stage (or, on the exact datapath, the same sum mod
  // 2^32 as a running sum).
  sum_.resize(n);
  kernel_->window_sum_n(window_, padded_, sum_);

  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<i32>(saturate_i32(sum_[i] >> out_shift_));
  }

  // Keep the last w-1 inputs as the next chunk's history.
  padded_.erase(padded_.begin(), padded_.begin() + static_cast<std::ptrdiff_t>(n));
}

// ------------------------------------------------------------- StageProcessor

namespace {

std::variant<FirStage, SquarerStage, MwiStage> make_stage_impl(Stage s,
                                                               arith::Kernel& kernel) {
  switch (s) {
    case Stage::Lpf: return FirStage(kLpfTaps, kLpfShift, kernel);
    case Stage::Hpf: return FirStage(kHpfTaps, kHpfShift, kernel);
    case Stage::Der: return FirStage(kDerTaps, kDerShift, kernel);
    case Stage::Sqr: return SquarerStage(kSqrShift, kernel);
    case Stage::Mwi: return MwiStage(kMwiWindow, kMwiShift, kernel);
  }
  throw std::invalid_argument("StageProcessor: unknown stage");
}

}  // namespace

StageProcessor::StageProcessor(Stage s, arith::Kernel& kernel)
    : impl_(make_stage_impl(s, kernel)) {}

void StageProcessor::process_chunk(std::span<const i32> x, std::vector<i32>& out) {
  std::visit([&](auto& stage) { stage.process_chunk(x, out); }, impl_);
}

void StageProcessor::reset() {
  std::visit([](auto& stage) { stage.reset(); }, impl_);
}

}  // namespace xbs::pantompkins
