#include "xbs/stream/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace xbs::stream {

Session::Session(SessionSpec spec)
    : spec_(std::move(spec)), detector_(spec_.config.detector, spec_.keep_detection) {
  stages_.reserve(pantompkins::kNumStages);
  for (int s = 0; s < pantompkins::kNumStages; ++s) {
    const auto su = static_cast<std::size_t>(s);
    kernels_[su] = arith::make_kernel(spec_.config.stage[su]);
    stages_.emplace_back(static_cast<pantompkins::Stage>(s), *kernels_[su]);
  }
}

void Session::deliver(std::span<const pantompkins::PeakEvent> evs) {
  const double fs = spec_.config.detector.fs_hz;
  for (const pantompkins::PeakEvent& pe : evs) {
    Event ev;
    ev.peak = pe;
    if (ev.is_beat()) {
      const auto raw = static_cast<std::ptrdiff_t>(pe.raw_index);
      ev.time_s = static_cast<double>(pe.raw_index) / fs;
      if (last_beat_raw_ >= 0 && raw > last_beat_raw_) {
        ev.rr_s = static_cast<double>(raw - last_beat_raw_) / fs;
        ev.hr_bpm = ev.rr_s > 0.0 ? 60.0 / ev.rr_s : 0.0;
      }
      last_beat_raw_ = std::max(last_beat_raw_, raw);
      ++beats_;
    } else {
      ev.time_s = static_cast<double>(pe.mwi_index) / fs;
    }
    ++events_;
    if (spec_.sink) spec_.sink(ev);
    fresh_.push_back(ev);
  }
}

std::span<const Event> Session::push(std::span<const i32> chunk) {
  if (flushed_) throw std::logic_error("stream::Session: push after flush");
  fresh_.clear();
  // Slices of at most kStageBlock samples, as run_stage's blocks, so the
  // stage buffers and kernel scratch stay cache-sized whatever the chunk
  // size; a chunk that fits (empty included) is one slice. Each slice goes
  // through each stage, in pipeline order, into reused per-session buffers,
  // then through the detector. Every stage is one-in-one-out, so the slice
  // outputs stay index-aligned with the raw input — exactly the alignment
  // the detector's lag constants assume.
  std::size_t at = 0;
  do {
    const std::span<const i32> slice =
        chunk.subspan(at, std::min(pantompkins::kStageBlock, chunk.size() - at));
    stages_[0].process_chunk(slice, chain_[0]);
    for (int s = 1; s < pantompkins::kNumStages; ++s) {
      const auto su = static_cast<std::size_t>(s);
      stages_[su].process_chunk(chain_[su - 1], chain_[su]);
    }
    if (spec_.keep_signals) {
      for (int s = 0; s < pantompkins::kNumStages; ++s) {
        const auto su = static_cast<std::size_t>(s);
        signals_[su].insert(signals_[su].end(), chain_[su].begin(), chain_[su].end());
      }
    }
    deliver(detector_.push(chain_[4], chain_[1], slice));  // MWI, HPF, raw
    at += slice.size();
  } while (at < chunk.size());
  n_ += chunk.size();
  return fresh_;
}

std::span<const Event> Session::flush() {
  fresh_.clear();
  if (flushed_) return fresh_;
  flushed_ = true;
  deliver(detector_.flush());
  return fresh_;
}

void Session::reset(pantompkins::WarmStart warm) {
  for (pantompkins::StageProcessor& st : stages_) st.reset();
  detector_.reset(warm);
  for (auto& k : kernels_) k->reset_counts();
  for (auto& sig : signals_) sig.clear();
  n_ = 0;
  events_ = 0;
  beats_ = 0;
  last_beat_raw_ = -1;
  fresh_.clear();
  flushed_ = false;
}

const pantompkins::DetectionResult& Session::detection() const noexcept {
  return detector_.result();
}

std::array<arith::OpCounts, pantompkins::kNumStages> Session::ops() const noexcept {
  std::array<arith::OpCounts, pantompkins::kNumStages> out{};
  for (int s = 0; s < pantompkins::kNumStages; ++s) {
    const auto su = static_cast<std::size_t>(s);
    out[su] = kernels_[su]->counts();
  }
  return out;
}

arith::OpCounts Session::total_ops() const noexcept {
  arith::OpCounts total;
  for (const auto& o : ops()) total += o;
  return total;
}

}  // namespace xbs::stream
