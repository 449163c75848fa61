// Scalar-vs-batched datapath throughput on a FIR workload. Streams a random
// 16-bit signal through the LPF stage four ways — scalar/batched x
// exact/approximate, the scalar path being the test oracle's per-sample
// units (tests/scalar_unit.hpp) — and emits one JSON object as a
// machine-readable perf baseline to regress against.
// The `configs` array additionally reports the batched exact-vs-approximate
// per-op gap for every elementary MultKind x ApproxPolicy combination, so
// regressions in any table-compilation path are visible per configuration.
// The `stages` array runs the HPF and MWI stages, whose AMA5 sums the
// approximate kernel evaluates in closed form, scalar and batched at 8 and
// 16 approximate LSBs, plus one AMA4 HPF row that keeps the wired-add chain.
// The `detector` array runs the QRS decision logic over one seeded record's
// exact and B9 pipeline outputs, as one whole-record push and as 64-sample
// pushes, through the test oracle's reference detector
// (tests/detector_oracle.hpp) and the library's OnlineDetector; it reports
// the median ns/sample of the iterations and whether both traces match.
//
//   ./bench_micro_kernel [--samples N] [--iters K] [--lsbs L]
//
// Throughput is samples/sec over the whole record; each path reports the
// best of K timed iterations. Checksums are printed so the bench doubles as
// an end-to-end equivalence check between the paths it compares.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "detector_oracle.hpp"
#include "scalar_unit.hpp"
#include "xbs/arith/isa.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace {

using namespace xbs;

struct PathResult {
  double samples_per_sec = 0.0;
  u64 checksum = 0;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

u64 checksum_of(const std::vector<i32>& y) {
  u64 h = 1469598103934665603ull;
  for (const i32 v : y) {
    h ^= static_cast<u64>(static_cast<u32>(v));
    h *= 1099511628211ull;
  }
  return h;
}

u64 checksum_of(const std::vector<i64>& y) {
  u64 h = 1469598103934665603ull;
  for (const i64 v : y) {
    h ^= static_cast<u64>(v);
    h *= 1099511628211ull;
  }
  return h;
}

/// Run the signal through a stage (the LPF unless given) over a scalar unit
/// (the per-op virtual-dispatch datapath: every add and multiply is one unit
/// call).
PathResult run_scalar(oracle::ArithmeticUnit& unit, const std::vector<i32>& x, int iters,
                      pantompkins::Stage stage = pantompkins::Stage::Lpf) {
  PathResult r;
  double best = 1e300;
  std::vector<i32> y;
  for (int it = 0; it < iters; ++it) {
    oracle::UnitKernel kernel(unit);
    pantompkins::StageProcessor st(stage, kernel);
    const double t0 = now_s();
    st.process_chunk(x, y);
    best = std::min(best, now_s() - t0);
  }
  r.samples_per_sec = static_cast<double>(x.size()) / best;
  r.checksum = checksum_of(y);
  return r;
}

/// Run the signal through the batched block transform of a stage (the LPF
/// unless given: one kernel call over the whole record).
PathResult run_batched(arith::Kernel& kernel, const std::vector<i32>& x, int iters,
                       pantompkins::Stage stage = pantompkins::Stage::Lpf) {
  PathResult r;
  double best = 1e300;
  std::vector<i32> y;
  for (int it = 0; it < iters; ++it) {
    pantompkins::StageProcessor st(stage, kernel);
    const double t0 = now_s();
    st.process_chunk(x, y);
    best = std::min(best, now_s() - t0);
  }
  r.samples_per_sec = static_cast<double>(x.size()) / best;
  r.checksum = checksum_of(y);
  return r;
}

/// FNV-1a over every field of a detection trace and the peak list.
u64 checksum_of(const pantompkins::DetectionResult& r) {
  u64 h = 1469598103934665603ull;
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const pantompkins::PeakEvent& e : r.trace) {
    mix(e.mwi_index);
    mix(e.hpf_index);
    mix(e.raw_index);
    mix(static_cast<u64>(e.mwi_value));
    mix(static_cast<u64>(e.hpf_value));
    mix(static_cast<u64>(e.decision));
  }
  for (const std::size_t p : r.peaks) mix(p);
  return h;
}

/// One detection over aligned streams, whole (push == 0) or in pushes of
/// \p push samples, then flush: the run's seconds and trace checksum.
template <class Detector>
std::pair<double, u64> detect_once(const pantompkins::PipelineResult& sig,
                                   const std::vector<i32>& raw, std::size_t push) {
  const double t0 = now_s();
  Detector det;
  const std::size_t n = raw.size();
  const std::size_t step = push == 0 ? std::max<std::size_t>(n, 1) : push;
  for (std::size_t at = 0; at < n; at += step) {
    const std::size_t len = std::min(step, n - at);
    (void)det.push(std::span<const i32>(sig.mwi).subspan(at, len),
                   std::span<const i32>(sig.hpf).subspan(at, len),
                   std::span<const i32>(raw).subspan(at, len));
  }
  (void)det.flush();
  const pantompkins::DetectionResult r = det.take_result();
  return {now_s() - t0, checksum_of(r)};
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const int samples = std::max(1, arg_int(argc, argv, "--samples", 10000));
  const int iters = std::max(1, arg_int(argc, argv, "--iters", 5));
  const int lsbs = std::clamp(arg_int(argc, argv, "--lsbs", 8), 0, 16);

  Rng rng(42);
  std::vector<i32> x(static_cast<std::size_t>(samples));
  for (i32& v : x) v = static_cast<i32>(rng.uniform_int(-20000, 20000));

  const arith::StageArithConfig approx_cfg = arith::StageArithConfig::uniform(lsbs);

  oracle::ExactUnit exact_unit;
  const PathResult scalar_exact = run_scalar(exact_unit, x, iters);
  arith::ExactKernel exact_kernel;
  const PathResult batched_exact = run_batched(exact_kernel, x, iters);

  oracle::ApproxUnit approx_unit(approx_cfg);
  const PathResult scalar_approx = run_scalar(approx_unit, x, iters);
  const std::unique_ptr<arith::Kernel> approx_kernel = arith::make_kernel(approx_cfg);
  {
    // Untimed warm-up: builds the multiplier LUTs and per-coefficient
    // product tables, which are process-wide and amortized across every
    // record of a real exploration run.
    (void)run_batched(*approx_kernel, x, 1);
  }
  const PathResult batched_approx = run_batched(*approx_kernel, x, iters);

  const double speedup_exact = batched_exact.samples_per_sec / scalar_exact.samples_per_sec;
  const double speedup_approx =
      batched_approx.samples_per_sec / scalar_approx.samples_per_sec;

  // Per-configuration exact-vs-approx gap: every elementary multiplier kind
  // under every LSB-selection policy, on the same batched FIR workload.
  struct ConfigRow {
    MultKind mult_kind;
    ApproxPolicy policy;
    double sps = 0.0;
    double gap = 0.0;  ///< batched exact sps / batched approx sps
    bool checksum_match = false;
  };
  std::vector<ConfigRow> rows;
  for (const MultKind mk : kAllMultKinds) {
    for (const ApproxPolicy pol :
         {ApproxPolicy::Conservative, ApproxPolicy::Moderate, ApproxPolicy::Aggressive}) {
      const arith::StageArithConfig cfg =
          arith::StageArithConfig::uniform(lsbs, AdderKind::Approx5, mk, pol);
      const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
      (void)run_batched(*kernel, x, 1);  // untimed table warm-up
      const PathResult batched = run_batched(*kernel, x, iters);
      oracle::ApproxUnit unit(cfg);
      ConfigRow row;
      row.mult_kind = mk;
      row.policy = pol;
      row.sps = batched.samples_per_sec;
      row.gap = batched_exact.samples_per_sec / batched.samples_per_sec;
      // One scalar pass per config keeps the bit-identity check per row.
      row.checksum_match = run_scalar(unit, x, 1).checksum == batched.checksum;
      rows.push_back(row);
    }
  }

  // Scalar-vs-batched rows of the stages whose AMA5 sums fold (HPF, MWI) at
  // k = 8 and 16, plus the AMA4 HPF as the control that keeps the wired-add
  // chain.
  struct StageRow {
    pantompkins::Stage stage;
    AdderKind kind;
    int lsbs = 0;
    double scalar_sps = 0.0;
    double batched_sps = 0.0;
    bool checksum_match = false;
  };
  std::vector<StageRow> stage_rows;
  for (const auto& [stage, kind, row_lsbs] :
       {std::tuple{pantompkins::Stage::Hpf, AdderKind::Approx5, 8},
        std::tuple{pantompkins::Stage::Hpf, AdderKind::Approx5, 16},
        std::tuple{pantompkins::Stage::Mwi, AdderKind::Approx5, 8},
        std::tuple{pantompkins::Stage::Mwi, AdderKind::Approx5, 16},
        std::tuple{pantompkins::Stage::Hpf, AdderKind::Approx4, 8}}) {
    const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(row_lsbs, kind);
    const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
    (void)run_batched(*kernel, x, 1, stage);  // untimed table warm-up
    const PathResult batched = run_batched(*kernel, x, iters, stage);
    oracle::ApproxUnit unit(cfg);
    const PathResult scalar = run_scalar(unit, x, 1, stage);
    stage_rows.push_back(StageRow{stage, kind, row_lsbs, scalar.samples_per_sec,
                                  batched.samples_per_sec,
                                  scalar.checksum == batched.checksum});
  }

  // Per-(op x ISA) dispatch-table rows: each compiled-and-usable kernel tier
  // runs the two raw dispatched loop shapes (table gather, wired add) plus
  // the whole batched LPF block, and is checksummed
  // against the baseline tier — the bench doubles as a bit-identity check of
  // every vector path it times.
  struct IsaOpRow {
    arith::Isa isa;
    const char* op;
    double sps = 0.0;
    double speedup = 1.0;  ///< vs the baseline tier on the same op
    u64 checksum = 0;
    bool checksum_match = false;
  };
  std::vector<IsaOpRow> isa_rows;
  {
    const std::size_t n = x.size();
    std::vector<i64> table(1u << 16);
    for (i64& t : table) t = rng.uniform_int(-(1 << 30), 1 << 30);
    const u64 mask = (1u << 16) - 1;
    std::vector<i64> xi(n), a(n), b(n), out(n);
    for (i64& v : xi) v = rng.uniform_int(-(1 << 20), 1 << 20);
    for (i64& v : a) v = rng.uniform_int(-2000000000, 2000000000);
    for (i64& v : b) v = rng.uniform_int(-2000000000, 2000000000);
    const arith::WiredAddParams wp{32, lsbs, true};

    for (const arith::Isa isa : arith::kAllIsas) {
      const arith::KernelOps* ops = arith::kernel_ops_for(isa);
      if (ops == nullptr) continue;  // not compiled or no CPU support: no row

      const auto time_op = [&](const char* op, auto&& body) {
        double best = 1e300;
        for (int it = 0; it < iters; ++it) {
          const double t0 = now_s();
          body();
          best = std::min(best, now_s() - t0);
        }
        IsaOpRow row;
        row.isa = isa;
        row.op = op;
        row.sps = static_cast<double>(n) / best;
        return row;
      };

      IsaOpRow gather = time_op("gather_lut_n", [&] {
        ops->gather_lut_n(table.data(), mask, xi.data(), out.data(), n);
      });
      gather.checksum = checksum_of(out);
      isa_rows.push_back(gather);

      IsaOpRow add = time_op("wired_add_n", [&] {
        ops->wired_add_n(a.data(), b.data(), out.data(), n, wp);
      });
      add.checksum = checksum_of(out);
      isa_rows.push_back(add);

      // The whole batched FIR block under this tier (tables already warm).
      (void)arith::force_kernel_isa(isa);
      const PathResult fir = run_batched(*approx_kernel, x, iters);
      IsaOpRow fir_row;
      fir_row.isa = isa;
      fir_row.op = "fir_lpf_block";
      fir_row.sps = fir.samples_per_sec;
      fir_row.checksum = fir.checksum;
      isa_rows.push_back(fir_row);
    }
    (void)arith::force_kernel_isa_auto();

    // Baseline is always first (kAllIsas order): resolve per-op references.
    for (IsaOpRow& row : isa_rows) {
      for (const IsaOpRow& ref : isa_rows) {
        if (ref.isa == arith::Isa::Baseline && std::strcmp(ref.op, row.op) == 0) {
          row.speedup = row.sps / ref.sps;
          row.checksum_match = row.checksum == ref.checksum;
        }
      }
    }
  }

  // The QRS decision logic, reference vs library, interleaved per
  // iteration, over one seeded record's exact and B9 pipeline outputs.
  struct DetectorRow {
    const char* config;
    std::size_t push = 0;  ///< 0 = one whole-record push
    double oracle_ns = 0.0;
    double detector_ns = 0.0;
    bool checksum_match = false;
  };
  std::vector<DetectorRow> detector_rows;
  {
    const ecg::DigitizedRecord rec = ecg::nsrdb_like_digitized(0, static_cast<std::size_t>(samples));
    const std::pair<const char*, pantompkins::PipelineConfig> cfgs[] = {
        {"exact", pantompkins::PipelineConfig::accurate()},
        {"B9", pantompkins::PipelineConfig::from_lsbs(core::fig12_b_configs()[8].lsbs)}};
    const double per_sample = 1e9 / static_cast<double>(std::max<std::size_t>(rec.adu.size(), 1));
    for (const auto& [name, cfg] : cfgs) {
      const pantompkins::PipelineResult sig = pantompkins::PanTompkinsPipeline(cfg).run(rec.adu);
      for (const std::size_t push : {std::size_t{0}, std::size_t{64}}) {
        std::vector<double> ref_ns, lib_ns;
        bool match = true;
        for (int it = 0; it < iters; ++it) {
          const auto ref = detect_once<oracle::ReferenceDetector>(sig, rec.adu, push);
          const auto lib = detect_once<pantompkins::OnlineDetector>(sig, rec.adu, push);
          ref_ns.push_back(ref.first * per_sample);
          lib_ns.push_back(lib.first * per_sample);
          match = match && ref.second == lib.second;
        }
        detector_rows.push_back(
            DetectorRow{name, push, median_of(ref_ns), median_of(lib_ns), match});
      }
    }
  }

  std::printf(
      "{\n"
      "  \"bench\": \"micro_kernel\",\n"
      "  \"isa\": \"%.*s\",\n"
      "  \"workload\": \"lpf_fir_11tap\",\n"
      "  \"samples\": %d,\n"
      "  \"iters\": %d,\n"
      "  \"approx_lsbs\": %d,\n"
      "  \"scalar_exact_sps\": %.0f,\n"
      "  \"batched_exact_sps\": %.0f,\n"
      "  \"scalar_approx_sps\": %.0f,\n"
      "  \"batched_approx_sps\": %.0f,\n"
      "  \"speedup_exact\": %.2f,\n"
      "  \"speedup_approx\": %.2f,\n"
      "  \"checksum_exact_match\": %s,\n"
      "  \"checksum_approx_match\": %s,\n"
      "  \"configs\": [\n",
      static_cast<int>(to_string(arith::kernel_isa().selected).size()),
      to_string(arith::kernel_isa().selected).data(),
      samples, iters, lsbs, scalar_exact.samples_per_sec, batched_exact.samples_per_sec,
      scalar_approx.samples_per_sec, batched_approx.samples_per_sec, speedup_exact,
      speedup_approx, scalar_exact.checksum == batched_exact.checksum ? "true" : "false",
      scalar_approx.checksum == batched_approx.checksum ? "true" : "false");
  bool rows_match = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigRow& r = rows[i];
    rows_match = rows_match && r.checksum_match;
    std::printf(
        "    {\"mult_kind\": \"%.*s\", \"policy\": \"%.*s\", "
        "\"batched_approx_sps\": %.0f, \"exact_over_approx_gap\": %.2f, "
        "\"checksum_match\": %s}%s\n",
        static_cast<int>(to_string(r.mult_kind).size()), to_string(r.mult_kind).data(),
        static_cast<int>(to_string(r.policy).size()), to_string(r.policy).data(), r.sps,
        r.gap, r.checksum_match ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"stages\": [\n");
  bool stage_rows_match = true;
  for (std::size_t i = 0; i < stage_rows.size(); ++i) {
    const StageRow& r = stage_rows[i];
    stage_rows_match = stage_rows_match && r.checksum_match;
    std::printf(
        "    {\"stage\": \"%.*s\", \"adder_kind\": \"%.*s\", \"approx_lsbs\": %d, "
        "\"scalar_sps\": %.0f, \"batched_sps\": %.0f, \"checksum_match\": %s}%s\n",
        static_cast<int>(to_string(r.stage).size()), to_string(r.stage).data(),
        static_cast<int>(to_string(r.kind).size()), to_string(r.kind).data(), r.lsbs,
        r.scalar_sps, r.batched_sps, r.checksum_match ? "true" : "false",
        i + 1 < stage_rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"isa_ops\": [\n");
  bool isa_rows_match = true;
  for (std::size_t i = 0; i < isa_rows.size(); ++i) {
    const IsaOpRow& r = isa_rows[i];
    isa_rows_match = isa_rows_match && r.checksum_match;
    std::printf(
        "    {\"isa\": \"%.*s\", \"op\": \"%s\", \"sps\": %.0f, "
        "\"speedup_vs_baseline\": %.2f, \"checksum_match\": %s}%s\n",
        static_cast<int>(to_string(r.isa).size()), to_string(r.isa).data(), r.op,
        r.sps, r.speedup, r.checksum_match ? "true" : "false",
        i + 1 < isa_rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"detector\": [\n");
  bool detector_rows_match = true;
  for (std::size_t i = 0; i < detector_rows.size(); ++i) {
    const DetectorRow& r = detector_rows[i];
    detector_rows_match = detector_rows_match && r.checksum_match;
    std::printf(
        "    {\"config\": \"%s\", \"push\": \"%s\", \"oracle_ns_per_sample\": %.3f, "
        "\"detector_ns_per_sample\": %.3f, \"speedup\": %.2f, \"checksum_match\": %s}%s\n",
        r.config, r.push == 0 ? "whole" : "64", r.oracle_ns, r.detector_ns,
        r.oracle_ns / r.detector_ns, r.checksum_match ? "true" : "false",
        i + 1 < detector_rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  // Non-zero exit when the bit-identity invariant is violated — between the
  // scalar and batched paths, between any vector tier and baseline, or
  // between the reference and library detectors — so CI smoke runs catch it.
  return (scalar_exact.checksum == batched_exact.checksum &&
          scalar_approx.checksum == batched_approx.checksum && rows_match &&
          stage_rows_match && isa_rows_match && detector_rows_match)
             ? 0
             : 1;
}
