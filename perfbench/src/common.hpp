// Shared pieces of the benchmark driver: clocks and process counters, the
// span recorder of the traced run, the metric sink, the input/reference
// file format, and the seeded record generator.
#pragma once

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xbs/ecg/record.hpp"
#include "xbs/stream/session.hpp"

namespace pb {

using xbs::i32;
using xbs::i64;
using xbs::u32;
using xbs::u64;
using xbs::u8;

// ------------------------------------------------------------ clocks, /proc

double now_s();         ///< steady clock, seconds
double cpu_s();         ///< CPU time of the whole process, seconds
double thread_cpu_s();  ///< CPU time of the calling thread, seconds
double peak_rss_mib();  ///< peak resident set of this process (VmHWM)
long threads_now();     ///< current thread count of this process
std::vector<pid_t> task_ids();      ///< thread ids of this process
double task_cpu_s(pid_t tid);       ///< CPU time of one thread of this process
/// Restrict the calling thread (and the threads it creates afterwards) to
/// CPUs [first, last]; last < 0 means the highest. No-op on one CPU.
void pin_to_cpus(int first, int last);

double percentile(std::vector<double> v, double q);  ///< linear interpolation, q in [0,1]
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ------------------------------------------------------------------ output

/// The metrics one run reports, by name, with units; plus free-form notes
/// for the human-readable report.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  u64 attempted = 0;
  u64 failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  void fail(u64 n, const std::string& why);
  /// One JSON object: {"attempted", "failed", "metrics", "notes"}.
  [[nodiscard]] std::string json() const;
};

// ------------------------------------------------------------------- spans

/// One traced call: name, interval, the enclosing span (-1 for none) and a
/// request id (connection/record/chunk, record, or pass/call index).
struct SpanRec {
  std::string_view name;
  double t0 = 0.0;
  double t1 = 0.0;
  i32 parent = -1;
  u64 req = 0;
};

/// A per-thread span log, kept in memory and written out when the run ends.
/// Disabled logs record nothing (the untraced runs).
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Open a nested span; close it with close(). Returns -1 when disabled.
  i32 open(std::string_view name, u64 req);
  void close(i32 id);
  /// Record an interval directly (asynchronous request/reply pairs); an
  /// interval still running gets its end from finish().
  i32 add(std::string_view name, double t0, double t1, i32 parent, u64 req);
  void finish(i32 id, double t1) {
    if (id >= 0) recs_[static_cast<std::size_t>(id)].t1 = t1;
  }

  [[nodiscard]] const std::vector<SpanRec>& spans() const noexcept { return recs_; }
  void append(const SpanLog& other);

 private:
  bool on_;
  std::vector<SpanRec> recs_;
  std::vector<i32> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string_view name, u64 req)
      : log_(log), id_(log.on() ? log.open(name, req) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) log_.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  i32 id_;
};

/// Per-name totals over a log: count, summed duration and summed self time
/// (duration minus the time its child spans cover).
struct SpanTotals {
  u64 count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> span_totals(const SpanLog& log);

/// Write every span as one tab-separated line, then add the per-name totals
/// to the report's notes.
void write_spans(const SpanLog& log, const std::string& path, Report& rep);

// ------------------------------------------------------------ file format

/// Length-prefixed little-endian blob of POD values and vectors; the
/// generator writes inputs and references with it, the driver reads them.
class BlobWriter {
 public:
  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const u8*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }
  template <class T>
  void put_vec(std::span<const T> v) {
    put<u64>(v.size());
    const auto* p = reinterpret_cast<const u8*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size_bytes());
  }
  void save(const std::string& path) const;

 private:
  std::vector<u8> buf_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::string& path);
  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    need(sizeof(T));
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <class T>
  std::vector<T> get_vec() {
    const u64 n = get<u64>();
    if (n > (buf_.size() - pos_) / sizeof(T)) throw std::runtime_error("blob: bad vector length");
    std::vector<T> v(n);
    std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

 private:
  void need(std::size_t n) const {
    if (buf_.size() - pos_ < n) throw std::runtime_error("blob: truncated");
  }
  std::vector<u8> buf_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------- events

/// One detector event in file form: every field bit-exact, plus the index
/// of the chunk whose Session::push emitted it in the reference run (the
/// chunk count for flush-tail events).
struct EvRec {
  u64 mwi_index = 0;
  u64 hpf_index = 0;
  u64 raw_index = 0;
  i64 mwi_value = 0;
  i64 hpf_value = 0;
  u64 time_bits = 0;
  u64 rr_bits = 0;
  u64 hr_bits = 0;
  u32 decision = 0;
  u32 chunk = 0;
};
static_assert(std::is_trivially_copyable_v<EvRec>);

EvRec to_rec(const xbs::stream::Event& e, u32 chunk);
/// Equal in every field but the emitting chunk.
bool same_event(const EvRec& a, const EvRec& b);
/// FNV-1a over the bit-exact fields of an event stream.
u64 digest(std::span<const EvRec> evs);

/// The reference event stream of one record under one configuration at one
/// chunk size, from an in-process stream::Session.
std::vector<EvRec> reference_events(const xbs::pantompkins::PipelineConfig& cfg,
                                     std::span<const i32> adu, std::size_t chunk);

// ---------------------------------------------------------------- inputs

/// A seeded NSRDB-like digitized record: heart rate, variability, morphology
/// and noise are all drawn from \p seed through the ecg generators.
xbs::ecg::DigitizedRecord seeded_record(u64 seed, std::size_t n_samples);

/// splitmix64: derives independent sub-seeds from the workload seed.
u64 mix_seed(u64 seed, u64 stream);

/// The configurations the serving workloads draw from, as the per-stage LSB
/// vectors an XBSP OPEN carries: exact, then the paper's Fig. 12 B1..B14.
std::vector<xbs::pantompkins::LsbVector> paper_serving_lsbs();

// ------------------------------------------------------------------ ladder

/// One record of a streaming workload, as the ladder replays it.
struct LadderInput {
  xbs::pantompkins::PipelineConfig cfg;
  std::span<const i32> adu;
};

/// CPU seconds of the first three ladder rungs over a workload's own inputs,
/// each on one thread (the server rung: one producer, one worker):
///   1. pantompkins::run_stage per stage, and the detector as
///      PanTompkinsPipeline::run minus run_filters;
///   2. stream::Session::push and flush at the workload's chunk size;
///   3. a StreamServer with one producer and one worker (acquire, commit,
///      close), as process CPU.
struct LadderRungs {
  std::array<double, xbs::pantompkins::kNumStages> stage_s{};
  double detect_s = 0.0;
  double session_s = 0.0;
  double server_s = 0.0;
  u64 samples = 0;
  u64 chunks = 0;
  u64 mismatched_records = 0;  ///< rung outputs disagreeing with one another

  [[nodiscard]] double rung1_s() const;
};
LadderRungs measure_ladder(const std::vector<LadderInput>& in, std::size_t chunk);

/// Sets the pantompkins.* and stream.session/handoff per-layer metrics.
void report_ladder_layers(const LadderRungs& l, Report& rep);

// ------------------------------------------------------------- workloads

struct RunArgs {
  std::string dir;      ///< workload directory holding the generated inputs
  double seconds = 10;  ///< length of the timed region
  bool trace = false;   ///< traced run: spans, per-layer metrics, ladder
  bool setup_only = false;
};

struct GenArgs {
  std::string dir;
  u64 seed = 1;
  bool corrupt = false;  ///< self-test: plant one wrong reference value
};

void gen_wire_fleet(const GenArgs& a);
void gen_archive_exact(const GenArgs& a);
void gen_dse_paper(const GenArgs& a);
void run_wire_fleet(const RunArgs& a, Report& rep);
void run_archive_exact(const RunArgs& a, Report& rep);
void run_dse_paper(const RunArgs& a, Report& rep);

}  // namespace pb
