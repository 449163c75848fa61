#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/adc.hpp"
#include "xbs/ecg/noise.hpp"
#include "xbs/ecg/template_gen.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/stream/server.hpp"

namespace pb {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The value of one "Key:   N kB" line of /proc/self/status, or -1.
long status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen && line[klen] == ':') {
      return std::strtol(line.c_str() + klen + 1, nullptr, 10);
    }
  }
  return -1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double peak_rss_mib() { return static_cast<double>(status_field("VmHWM")) / 1024.0; }
long threads_now() { return status_field("Threads"); }

std::vector<pid_t> task_ids() {
  std::vector<pid_t> ids;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return ids;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      ids.push_back(static_cast<pid_t>(std::strtol(e->d_name, nullptr, 10)));
    }
  }
  ::closedir(d);
  std::sort(ids.begin(), ids.end());
  return ids;
}

double task_cpu_s(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = all.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(all.substr(close + 2));
  // Fields after the command name start at field 3 (state); utime and stime
  // are fields 14 and 15.
  std::string f;
  double utime = 0;
  double stime = 0;
  for (int field = 3; field <= 15 && rest >> f; ++field) {
    if (field == 14) utime = std::strtod(f.c_str(), nullptr);
    if (field == 15) stime = std::strtod(f.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void pin_to_cpus(int first, int last) {
  const int n = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  if (n < 2) return;
  if (last < 0) last = n - 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------------ Report

void Report::fail(u64 n, const std::string& why) {
  if (n == 0) return;
  failed += n;
  note("FAIL " + std::to_string(n) + ": " + why);
}

std::string Report::json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}, \"notes\": [";
  first = true;
  for (const std::string& n : notes) {
    out += (first ? "\"" : ", \"") + json_escape(n) + "\"";
    first = false;
  }
  out += "]}";
  return out;
}

// ------------------------------------------------------------------- spans

i32 SpanLog::open(std::string_view name, u64 req) {
  const i32 parent = stack_.empty() ? -1 : stack_.back();
  const i32 id = add(name, now_s(), 0.0, parent, req);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(i32 id) {
  recs_[static_cast<std::size_t>(id)].t1 = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

i32 SpanLog::add(std::string_view name, double t0, double t1, i32 parent, u64 req) {
  if (!on_) return -1;
  recs_.push_back(SpanRec{name, t0, t1, parent, req});
  return static_cast<i32>(recs_.size() - 1);
}

void SpanLog::append(const SpanLog& other) {
  const auto offset = static_cast<i32>(recs_.size());
  for (SpanRec r : other.recs_) {
    if (r.parent >= 0) r.parent += offset;
    recs_.push_back(r);
  }
}

std::map<std::string, SpanTotals> span_totals(const SpanLog& log) {
  const auto& recs = log.spans();
  std::vector<double> child_cover(recs.size(), 0.0);
  for (const SpanRec& r : recs) {
    if (r.parent >= 0) child_cover[static_cast<std::size_t>(r.parent)] += r.t1 - r.t0;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    SpanTotals& t = out[std::string(recs[i].name)];
    const double dur = recs[i].t1 - recs[i].t0;
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - child_cover[i];
  }
  return out;
}

void write_spans(const SpanLog& log, const std::string& path, Report& rep) {
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "id\tname\tstart_s\tend_s\tparent\treq\n");
    const auto& recs = log.spans();
    const double base = recs.empty() ? 0.0 : recs.front().t0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const SpanRec& r = recs[i];
      std::fprintf(f, "%zu\t%.*s\t%.9f\t%.9f\t%d\t%llx\n", i, static_cast<int>(r.name.size()),
                   r.name.data(), r.t0 - base, r.t1 - base, r.parent,
                   static_cast<unsigned long long>(r.req));
    }
    std::fclose(f);
  }
  for (const auto& [name, t] : span_totals(log)) {
    char line[256];
    std::snprintf(line, sizeof line, "span %-22s n=%-8llu total=%.4fs self=%.4fs", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    rep.note(line);
  }
}

// -------------------------------------------------------------------- blobs

void BlobWriter::save(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const bool ok = std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("short write to " + path);
}

BlobReader::BlobReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  buf_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// -------------------------------------------------------------------- events

EvRec to_rec(const xbs::stream::Event& e, u32 chunk) {
  EvRec r;
  r.mwi_index = e.peak.mwi_index;
  r.hpf_index = e.peak.hpf_index;
  r.raw_index = e.peak.raw_index;
  r.mwi_value = e.peak.mwi_value;
  r.hpf_value = e.peak.hpf_value;
  r.time_bits = std::bit_cast<u64>(e.time_s);
  r.rr_bits = std::bit_cast<u64>(e.rr_s);
  r.hr_bits = std::bit_cast<u64>(e.hr_bpm);
  r.decision = static_cast<u32>(e.peak.decision);
  r.chunk = chunk;
  return r;
}

bool same_event(const EvRec& a, const EvRec& b) {
  return a.mwi_index == b.mwi_index && a.hpf_index == b.hpf_index &&
         a.raw_index == b.raw_index && a.mwi_value == b.mwi_value &&
         a.hpf_value == b.hpf_value && a.time_bits == b.time_bits && a.rr_bits == b.rr_bits &&
         a.hr_bits == b.hr_bits && a.decision == b.decision;
}

u64 digest(std::span<const EvRec> evs) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const EvRec& e : evs) {
    mix(e.mwi_index);
    mix(e.hpf_index);
    mix(e.raw_index);
    mix(static_cast<u64>(e.mwi_value));
    mix(static_cast<u64>(e.hpf_value));
    mix(e.time_bits);
    mix(e.rr_bits);
    mix(e.hr_bits);
    mix(e.decision);
  }
  return h;
}

std::vector<EvRec> reference_events(const xbs::pantompkins::PipelineConfig& cfg,
                                     std::span<const i32> adu, std::size_t chunk) {
  xbs::pantompkins::warm_pipeline_tables(cfg);  // small chunks run on warm tables only
  xbs::stream::SessionSpec spec;
  spec.config = cfg;
  spec.keep_detection = false;
  xbs::stream::Session s(spec);
  std::vector<EvRec> out;
  u32 k = 0;
  for (std::size_t at = 0; at < adu.size(); at += chunk, ++k) {
    for (const auto& e : s.push(adu.subspan(at, std::min(chunk, adu.size() - at)))) {
      out.push_back(to_rec(e, k));
    }
  }
  for (const auto& e : s.flush()) out.push_back(to_rec(e, k));
  return out;
}

// -------------------------------------------------------------------- inputs

u64 mix_seed(u64 seed, u64 stream) {
  u64 z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

xbs::ecg::DigitizedRecord seeded_record(u64 seed, std::size_t n_samples) {
  // The parameter ranges of ecg::nsrdb_like_record, drawn from the workload
  // seed instead of a fixed subject index.
  xbs::Rng param_rng(seed);
  xbs::ecg::TemplateEcgParams p;
  p.hr_bpm = param_rng.uniform(55.0, 88.0);
  p.hrv_rel_sd = param_rng.uniform(0.02, 0.05);
  p.rsa_rel = param_rng.uniform(0.015, 0.035);
  p.amplitude_scale = param_rng.uniform(0.85, 1.2);
  p.t.amplitude_mv = param_rng.uniform(0.22, 0.38);
  p.p.amplitude_mv = param_rng.uniform(0.08, 0.16);
  xbs::ecg::EcgRecord rec =
      xbs::ecg::generate_template_ecg(p, n_samples, seed ^ 0xECDA7A5Eull);
  rec.name = "seed" + std::to_string(seed % 100000);
  xbs::Rng noise_rng(seed ^ 0x9015EEDull);
  xbs::ecg::add_standard_noise(rec, noise_rng);
  return xbs::ecg::AdcFrontEnd{}.digitize(rec);
}

std::vector<xbs::pantompkins::LsbVector> paper_serving_lsbs() {
  std::vector<xbs::pantompkins::LsbVector> out{xbs::pantompkins::LsbVector{}};
  for (const auto& nc : xbs::core::fig12_b_configs()) out.push_back(nc.lsbs);
  return out;
}

}  // namespace pb

// -------------------------------------------------------------------- ladder

namespace pb {

double LadderRungs::rung1_s() const {
  double s = detect_s;
  for (const double v : stage_s) s += v;
  return s;
}

LadderRungs measure_ladder(const std::vector<LadderInput>& in, std::size_t chunk) {
  using namespace xbs;
  LadderRungs l;
  for (const LadderInput& x : in) pantompkins::warm_pipeline_tables(x.cfg);

  std::vector<u64> session_events;
  for (const LadderInput& x : in) {
    l.samples += x.adu.size();
    l.chunks += (x.adu.size() + chunk - 1) / chunk;
    std::vector<i32> sig(x.adu.begin(), x.adu.end());
    for (std::size_t s = 0; s < pantompkins::kNumStages; ++s) {
      const double t = thread_cpu_s();
      std::vector<i32> out =
          pantompkins::run_stage(pantompkins::kAllStages[s], x.cfg.stage[s], sig);
      l.stage_s[s] += thread_cpu_s() - t;
      sig = std::move(out);
    }
    const pantompkins::PanTompkinsPipeline pipe(x.cfg);
    double t = thread_cpu_s();
    const auto full = pipe.run(x.adu);
    l.detect_s += thread_cpu_s() - t;
    t = thread_cpu_s();
    const auto filt = pipe.run_filters(x.adu);
    l.detect_s -= thread_cpu_s() - t;
    if (full.mwi != filt.mwi || full.mwi != sig) ++l.mismatched_records;
  }

  for (const LadderInput& x : in) {
    stream::SessionSpec spec;
    spec.config = x.cfg;
    spec.keep_detection = false;
    stream::Session s(spec);
    u64 n = 0;
    const double t = thread_cpu_s();
    for (std::size_t at = 0; at < x.adu.size(); at += chunk) {
      n += s.push(x.adu.subspan(at, std::min(chunk, x.adu.size() - at))).size();
    }
    n += s.flush().size();
    l.session_s += thread_cpu_s() - t;
    session_events.push_back(n);
  }

  stream::StreamServer::Options so;
  so.max_sessions = 2;
  so.queue_capacity_chunks = 64;
  so.workers = 1;
  so.shards = 1;
  so.event_queue_capacity = 1u << 16;
  stream::StreamServer server(so);
  std::vector<stream::Event> evs;
  const double t = cpu_s();
  for (std::size_t i = 0; i < in.size(); ++i) {
    stream::SessionSpec spec;
    spec.config = in[i].cfg;
    spec.keep_detection = false;
    const stream::SessionId sid = server.open(spec);
    const auto adu = in[i].adu;
    for (std::size_t at = 0; at < adu.size(); at += chunk) {
      stream::ChunkLoan loan;
      const std::size_t n = std::min(chunk, adu.size() - at);
      if (server.acquire_buffer(sid, n, loan) != stream::PushResult::Ok) break;
      std::memcpy(loan.data().data(), adu.data() + at, n * sizeof(i32));
      (void)server.commit(loan);
    }
    (void)server.close(sid);
    evs.clear();
    (void)server.drain_events(sid, evs);
    (void)server.release(sid);
    if (evs.size() != session_events[i]) ++l.mismatched_records;
  }
  l.server_s = cpu_s() - t;
  return l;
}

void report_ladder_layers(const LadderRungs& l, Report& rep) {
  static constexpr const char* kNames[] = {"lpf", "hpf", "der", "sqr", "mwi"};
  const double per_sample = 1e9 / static_cast<double>(l.samples);
  for (std::size_t s = 0; s < l.stage_s.size(); ++s) {
    rep.set(std::string("pantompkins.") + kNames[s] + "_ns_per_sample", l.stage_s[s] * per_sample,
            "ns");
  }
  rep.set("pantompkins.detect_ns_per_sample", l.detect_s * per_sample, "ns");
  rep.set("stream.session_ns_per_sample", l.session_s * per_sample, "ns");
  rep.set("stream.handoff_ns_per_chunk",
          (l.server_s - l.session_s) * 1e9 / static_cast<double>(l.chunks), "ns");
  rep.fail(l.mismatched_records, "ladder rungs disagree on a record's output");
}

}  // namespace pb
