// The runtime kernel-ISA dispatch: selection and forcing never crash (an
// unavailable request falls back visibly to a usable tier), every compiled
// vector tier is bit-identical to the baseline loops op by op, whole
// pipelines are bit-identical per Fig. 12 configuration under every forced
// tier, StreamServer output is shard- AND tier-invariant, and the streaming
// hot path never builds a table lazily once the configuration is warmed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/stream/server.hpp"
#include "xbs/stream/session.hpp"

namespace xbs::arith {
namespace {

/// Every test that forces a tier restores startup auto-selection on exit, so
/// test order cannot leak a forced tier into unrelated tests.
class KernelDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override { force_kernel_isa_auto(); }
};

TEST_F(KernelDispatchTest, ParseAndPrintRoundTrip) {
  for (const Isa isa : kAllIsas) {
    EXPECT_EQ(parse_isa(to_string(isa)), std::optional<Isa>(isa));
  }
  EXPECT_EQ(parse_isa("pentium"), std::nullopt);
  EXPECT_EQ(parse_isa(""), std::nullopt);
  EXPECT_EQ(parse_isa("AVX2"), std::nullopt);  // names are case-sensitive
}

TEST_F(KernelDispatchTest, BaselineTierAlwaysUsable) {
  EXPECT_TRUE(isa_compiled(Isa::Baseline));
  EXPECT_TRUE(isa_cpu_supported(Isa::Baseline));
  EXPECT_TRUE(isa_usable(Isa::Baseline));
  EXPECT_NE(kernel_ops_for(Isa::Baseline), nullptr);
  EXPECT_TRUE(isa_usable(best_isa()));
  const IsaSelection& sel = kernel_isa();
  EXPECT_TRUE(isa_usable(sel.selected));
}

TEST_F(KernelDispatchTest, ForcingAnyTierNeverCrashesAndFallsBackVisibly) {
  for (const Isa isa : kAllIsas) {
    const IsaSelection sel = force_kernel_isa(isa);
    ASSERT_TRUE(isa_usable(sel.selected)) << to_string(isa);
    EXPECT_EQ(sel.requested, isa);
    EXPECT_FALSE(sel.from_env);
    if (isa_usable(isa)) {
      EXPECT_EQ(sel.selected, isa);
      EXPECT_FALSE(sel.fallback);
      EXPECT_TRUE(sel.note.empty());
    } else {
      // The graceful path: a machine without the tier still runs — on the
      // widest tier it has — and says so instead of crashing.
      EXPECT_EQ(sel.selected, best_isa());
      EXPECT_TRUE(sel.fallback);
      EXPECT_NE(sel.note.find(std::string(to_string(isa))), std::string::npos);
      EXPECT_NE(sel.note.find("falling back"), std::string::npos);
    }
    // The dispatch table always lands on callable ops.
    std::vector<i64> x{1, 2, 3}, out(3);
    std::vector<i64> table(16, 7);
    kernel_ops().gather_lut_n(table.data(), 0xF, x.data(), out.data(), x.size());
    EXPECT_EQ(out, (std::vector<i64>{7, 7, 7}));
  }
}

TEST_F(KernelDispatchTest, EnvOverrideSelectsAndUnknownValueFallsBack) {
  const char* saved = std::getenv("XBS_KERNEL_ISA");
  const std::string saved_value = saved != nullptr ? saved : "";

  ASSERT_EQ(setenv("XBS_KERNEL_ISA", "baseline", 1), 0);
  IsaSelection sel = force_kernel_isa_auto();
  EXPECT_EQ(sel.selected, Isa::Baseline);
  EXPECT_TRUE(sel.from_env);
  EXPECT_FALSE(sel.fallback);

  ASSERT_EQ(setenv("XBS_KERNEL_ISA", "sse9000", 1), 0);
  sel = force_kernel_isa_auto();
  EXPECT_TRUE(sel.from_env);
  EXPECT_TRUE(sel.fallback);
  EXPECT_EQ(sel.selected, best_isa());
  EXPECT_NE(sel.note.find("unknown XBS_KERNEL_ISA"), std::string::npos);

  if (saved != nullptr) {
    ASSERT_EQ(setenv("XBS_KERNEL_ISA", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("XBS_KERNEL_ISA"), 0);
  }
}

/// The raw dispatch-table ops, tier vs baseline, across ragged lengths,
/// aliasing, and the wired-add parameter space (both operand-port
/// conventions and the k >= w low-only closed form).
TEST_F(KernelDispatchTest, VectorTiersBitIdenticalToBaselineOps) {
  const KernelOps& base = *kernel_ops_for(Isa::Baseline);
  Rng rng(2026);

  std::vector<i64> table(1u << 16);
  for (i64& t : table) t = rng.uniform_int(-(1 << 30), 1 << 30);
  const u64 mask = (1u << 16) - 1;

  const std::vector<std::size_t> lens{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 700};
  for (const Isa isa : {Isa::Avx2, Isa::Avx512}) {
    const KernelOps* ops = kernel_ops_for(isa);
    if (ops == nullptr) continue;  // covered by the skip-notice pipeline test
    for (const std::size_t n : lens) {
      std::vector<i64> x(n), want(n), got(n);
      for (i64& v : x) v = rng.uniform_int(-(1 << 20), 1 << 20);

      base.gather_lut_n(table.data(), mask, x.data(), want.data(), n);
      ops->gather_lut_n(table.data(), mask, x.data(), got.data(), n);
      EXPECT_EQ(got, want) << to_string(isa) << " gather n=" << n;

      // In-place gather (out aliases x) — the SQR stage's calling shape.
      std::vector<i64> inplace = x;
      ops->gather_lut_n(table.data(), mask, inplace.data(), inplace.data(), n);
      EXPECT_EQ(inplace, want) << to_string(isa) << " aliased gather n=" << n;

      std::vector<i64> a(n), b(n);
      for (i64& v : a) v = rng.uniform_int(-2000000000, 2000000000);
      for (i64& v : b) v = rng.uniform_int(-2000000000, 2000000000);
      for (const bool sum_is_b : {true, false}) {
        for (const int k : {0, 1, 10, 31, 32, 40}) {
          const WiredAddParams p{32, k, sum_is_b};
          base.wired_add_n(a.data(), b.data(), want.data(), n, p);
          ops->wired_add_n(a.data(), b.data(), got.data(), n, p);
          EXPECT_EQ(got, want) << to_string(isa) << " add n=" << n << " k=" << k
                               << " sum_is_b=" << sum_is_b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xbs::arith

namespace xbs::pantompkins {
namespace {

using arith::force_kernel_isa;
using arith::Isa;
using arith::isa_usable;
using arith::kAllIsas;
using arith::to_string;

class ForcedIsaPipeline : public ::testing::TestWithParam<Isa> {
 protected:
  void TearDown() override { arith::force_kernel_isa_auto(); }
};

/// Every Fig. 12 configuration, whole-pipeline, forced tier vs forced
/// baseline: per-stage signals, detected beats and op counts all equal.
TEST_P(ForcedIsaPipeline, Fig12ConfigsBitIdenticalToBaseline) {
  const Isa isa = GetParam();
  if (!isa_usable(isa)) {
    GTEST_SKIP() << "kernel ISA \"" << to_string(isa)
                 << "\" not usable on this host (not compiled or no CPU "
                    "support); baseline leg still covers the dispatch seam";
  }
  const auto rec = ecg::nsrdb_like_digitized(0, 3000);
  for (const core::NamedConfig& named : core::fig12_b_configs()) {
    const PipelineConfig cfg = PipelineConfig::from_lsbs(named.lsbs);

    force_kernel_isa(Isa::Baseline);
    const PipelineResult want = PanTompkinsPipeline(cfg).run(rec.adu);

    force_kernel_isa(isa);
    const PipelineResult got = PanTompkinsPipeline(cfg).run(rec.adu);

    ASSERT_EQ(got.mwi, want.mwi) << named.name << " on " << to_string(isa);
    EXPECT_EQ(got.lpf, want.lpf) << named.name;
    EXPECT_EQ(got.sqr, want.sqr) << named.name;
    EXPECT_EQ(got.detection.peaks, want.detection.peaks) << named.name;
    EXPECT_EQ(got.ops, want.ops) << named.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, ForcedIsaPipeline, ::testing::ValuesIn(kAllIsas),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace xbs::pantompkins

namespace xbs::stream {
namespace {

using arith::Isa;

/// StreamServer egress for one record: (event identity, sample totals).
struct ServedRecord {
  std::vector<Event> events;
  u64 samples = 0;
  u64 beats = 0;
};

void serve_record(const std::vector<i32>& adu, unsigned shards, ServedRecord& out) {
  StreamServer server({.max_sessions = 4,
                       .queue_capacity_chunks = 16,
                       .workers = shards,
                       .shards = shards,
                       .event_queue_capacity = 1u << 14});
  SessionSpec spec;
  spec.config = pantompkins::PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  spec.keep_detection = false;
  const SessionId id = server.open(spec);

  constexpr std::size_t kChunk = 257;  // deliberately ragged vs the vector width
  for (std::size_t at = 0; at < adu.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, adu.size() - at);
    ASSERT_EQ(server.push(id, std::span<const i32>(adu).subspan(at, n)),
              PushResult::Ok)
        << at;
    if ((at / kChunk) % 3 == 0) (void)server.drain_events(id, out.events);
  }
  EXPECT_EQ(server.close(id), SessionState::Closed);
  (void)server.drain_events(id, out.events);
  const StreamServer::SessionStats st = server.session_stats(id);
  out.samples = st.samples;
  out.beats = st.beats;
}

TEST(KernelDispatchServing, ServerOutputInvariantAcrossShardsAndTiers) {
  // Reference: baseline tier, single shard. Every usable tier at every shard
  // count must reproduce it event for event — the serving layer's
  // bit-identity contract is ISA-independent.
  const auto rec = ecg::nsrdb_like_digitized(3, 6000);

  arith::force_kernel_isa(Isa::Baseline);
  ServedRecord want;
  serve_record(rec.adu, 1, want);

  for (const Isa isa : arith::kAllIsas) {
    if (!arith::isa_usable(isa)) continue;
    for (const unsigned shards : {1u, 4u}) {
      arith::force_kernel_isa(isa);
      ServedRecord got;
      serve_record(rec.adu, shards, got);
      const std::string what = std::string(arith::to_string(isa)) + " shards=" +
                               std::to_string(shards);
      EXPECT_EQ(got.samples, want.samples) << what;
      EXPECT_EQ(got.beats, want.beats) << what;
      ASSERT_EQ(got.events.size(), want.events.size()) << what;
      for (std::size_t i = 0; i < want.events.size(); ++i) {
        EXPECT_EQ(got.events[i].peak, want.events[i].peak) << what << " event " << i;
        EXPECT_EQ(got.events[i].time_s, want.events[i].time_s) << what << " event " << i;
      }
    }
  }
  arith::force_kernel_isa_auto();
}

TEST(KernelDispatchServing, WarmedStreamingHotPathBuildsNoTables) {
  // The warm contract, tier-aware: once warm_pipeline_tables() ran for the
  // spec under the selected tier, streaming any chunk size must hit warm
  // tables only — zero lazy multiplier-model or product/square-table builds.
  const auto cfg = pantompkins::PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  pantompkins::warm_pipeline_tables(cfg);

  SessionSpec spec;
  spec.config = cfg;
  Session session(spec);  // kernels build from warm caches

  const auto rec = ecg::nsrdb_like_digitized(1, 5000);
  const arith::TableCacheStats before = arith::table_cache_stats();
  for (std::size_t at = 0; at < rec.adu.size(); at += 61) {
    const std::size_t n = std::min<std::size_t>(61, rec.adu.size() - at);
    (void)session.push(std::span<const i32>(rec.adu).subspan(at, n));
  }
  (void)session.flush();
  const arith::TableCacheStats after = arith::table_cache_stats();
  EXPECT_EQ(after, before) << "the streaming hot path built a table lazily";
}

}  // namespace
}  // namespace xbs::stream
