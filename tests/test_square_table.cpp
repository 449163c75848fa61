// Exhaustive bit-identity of the precompiled square tables (the SQR-stage
// kernel) against the behavioural multiplier, for every Fig. 12 SQR
// configuration, plus coverage of the in-place square_n walk and the signed
// per-coefficient tables the FIR stages walk.
#include <gtest/gtest.h>

#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/core/paper_configs.hpp"

namespace xbs::arith {
namespace {

/// Distinct approximate SQR-stage arithmetic configurations of the paper's
/// Fig. 12 table (B1..B14 all use ApproxAdd5 + AppMultV1), deduplicated.
std::vector<StageArithConfig> fig12_sqr_configs() {
  std::vector<StageArithConfig> cfgs;
  for (const auto& named : core::fig12_b_configs()) {
    const int lsbs = named.lsbs[3];  // SQR is stage index 3
    if (lsbs == 0) continue;         // exact: no table, native datapath
    const StageArithConfig cfg = StageArithConfig::uniform(lsbs);
    bool seen = false;
    for (const auto& c : cfgs) seen |= (c == cfg);
    if (!seen) cfgs.push_back(cfg);
  }
  return cfgs;
}

TEST(SquareTable, BitIdenticalToMultiplierOverAllInputsForFig12Configs) {
  const std::vector<StageArithConfig> cfgs = fig12_sqr_configs();
  ASSERT_FALSE(cfgs.empty());
  for (const StageArithConfig& cfg : cfgs) {
    const auto mult = get_multiplier(cfg.mult);
    const auto table = get_square_products(cfg.mult);
    ASSERT_EQ(table->size(), std::size_t{1} << cfg.mult.width);
    for (std::size_t u = 0; u < table->size(); ++u) {
      const i64 x = sign_extend(static_cast<u64>(u), cfg.mult.width);
      ASSERT_EQ((*table)[u], mult->multiply_signed(x, x))
          << "lsbs=" << cfg.mult.approx_lsbs << " u=" << u;
    }
  }
}

TEST(SquareTable, CoversOtherModuleKindsAndPolicies) {
  for (const MultKind mk : {MultKind::V1, MultKind::V2}) {
    for (const ApproxPolicy pol :
         {ApproxPolicy::Conservative, ApproxPolicy::Moderate, ApproxPolicy::Aggressive}) {
      const StageArithConfig cfg = StageArithConfig::uniform(8, AdderKind::Approx4, mk, pol);
      const auto mult = get_multiplier(cfg.mult);
      const auto table = get_square_products(cfg.mult);
      for (std::size_t u = 0; u < table->size(); u += 17) {  // stride sample
        const i64 x = sign_extend(static_cast<u64>(u), cfg.mult.width);
        ASSERT_EQ((*table)[u], mult->multiply_signed(x, x));
      }
    }
  }
}

TEST(SquareTable, AliasedSquareNMatchesMultiplier) {
  const StageArithConfig cfg = StageArithConfig::uniform(8);
  ApproxKernel kernel(cfg);
  const auto mult = get_multiplier(cfg.mult);
  std::vector<i64> v;
  for (i64 x = -32768; x <= 32767; x += 191) v.push_back(x);
  std::vector<i64> expect;
  expect.reserve(v.size());
  for (const i64 x : v) expect.push_back(mult->multiply_signed(x, x));
  kernel.square_n(v, v);  // in-place squaring is part of the contract
  EXPECT_EQ(v, expect);
}

TEST(SignedCoeffTable, MatchesMultiplierForEveryOperandPattern) {
  const StageArithConfig cfg = StageArithConfig::uniform(12);
  const auto mult = get_multiplier(cfg.mult);
  for (const i64 c : {i64{31}, i64{-1}, i64{6}, i64{-2}}) {
    const auto table = get_signed_coeff_products(cfg.mult, c);
    ASSERT_EQ(table->size(), std::size_t{1} << cfg.mult.width);
    for (std::size_t u = 0; u < table->size(); u += 13) {  // stride sample
      const i64 x = sign_extend(static_cast<u64>(u), cfg.mult.width);
      ASSERT_EQ((*table)[u], mult->multiply_signed(c, x)) << "c=" << c << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace xbs::arith
