/// \file scalar_unit.hpp
/// \brief Test-only per-sample scalar datapath: the reference the batched
/// arith::Kernel backends are checked against.
///
/// An ArithmeticUnit performs one add or multiply per call and counts it.
/// ExactUnit is native arithmetic (32-bit wrapping adds, sign-extended 16x16
/// multiplies); ApproxUnit calls one stage configuration's approximate adder
/// (RippleCarryAdder) and multiplier (the get_multiplier() model) one
/// operation at a time. UnitKernel presents a unit as an arith::Kernel whose
/// three ops evaluate the hardware's tap chain, squarer and MWI adder tree
/// literally, one unit call per add or multiply, so the batched backends and
/// the stages built on them can be compared against it bit for bit,
/// operation counts included. Free of GoogleTest, so bench_micro_kernel can
/// time the same scalar path.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/common/types.hpp"

namespace xbs::oracle {

/// Scalar datapath: one call per add or multiply of a stage.
class ArithmeticUnit {
 public:
  virtual ~ArithmeticUnit() = default;

  /// 32-bit adder block.
  [[nodiscard]] virtual i64 add(i64 a, i64 b) = 0;
  /// 16x16 signed multiplier block (32-bit product).
  [[nodiscard]] virtual i64 mul(i64 a, i64 b) = 0;

  [[nodiscard]] const arith::OpCounts& counts() const noexcept { return counts_; }

 protected:
  arith::OpCounts counts_;
};

/// Exact native arithmetic (the golden reference datapath).
class ExactUnit final : public ArithmeticUnit {
 public:
  /// The low 32 bits of the sum, sign-extended.
  [[nodiscard]] i64 add(i64 a, i64 b) override {
    ++counts_.adds;
    return static_cast<i32>(static_cast<u32>(a + b));
  }
  /// The product of the operands' low 16 bits, each sign-extended.
  [[nodiscard]] i64 mul(i64 a, i64 b) override {
    ++counts_.mults;
    return i64{static_cast<i16>(static_cast<u16>(a))} * static_cast<i16>(static_cast<u16>(b));
  }
};

/// Bit-accurate approximate datapath for one stage configuration.
class ApproxUnit final : public ArithmeticUnit {
 public:
  explicit ApproxUnit(const arith::StageArithConfig& cfg)
      : adder_(cfg.adder), mult_(arith::get_multiplier(cfg.mult)) {}

  [[nodiscard]] i64 add(i64 a, i64 b) override {
    ++counts_.adds;
    return adder_.add_signed(a, b);
  }
  [[nodiscard]] i64 mul(i64 a, i64 b) override {
    ++counts_.mults;
    return mult_->multiply_signed(a, b);
  }

 private:
  arith::RippleCarryAdder adder_;
  std::shared_ptr<const arith::RecursiveMultiplier> mult_;
};

/// The balanced pairwise adder tree of netlist::build_mwi_stage over
/// \p terms, oldest first: each level adds adjacent terms in pairs through
/// \p unit and carries an odd leftover to the end of the next level. Reduces
/// \p terms in place; requires at least one term.
inline i64 tree_sum(std::vector<i64>& terms, ArithmeticUnit& unit) {
  while (terms.size() > 1) {
    std::size_t next = 0;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      terms[next++] = unit.add(terms[i], terms[i + 1]);
    }
    if (terms.size() % 2 == 1) terms[next++] = terms.back();
    terms.resize(next);
  }
  return terms[0];
}

/// Presents a scalar ArithmeticUnit as a Kernel: every add and multiply of
/// the batched ops is one unit call, so operation counts accrue on the unit
/// exactly as if the caller had streamed sample by sample (and on the
/// Kernel's own counters, as for any backend).
class UnitKernel final : public arith::Kernel {
 public:
  explicit UnitKernel(ArithmeticUnit& unit) noexcept : unit_(&unit) {}

 protected:
  void fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                  std::span<i64> acc) override {
    // The first non-zero tap's products, then one accumulation per
    // subsequent tap, in tap order.
    const std::size_t T = taps.size();
    const std::size_t n = acc.size();
    bool first = true;
    for (std::size_t j = 0; j < T; ++j) {
      const i64 c = taps[j];
      if (c == 0) continue;
      const i64* x = padded.data() + (T - 1 - j);
      if (first) {
        for (std::size_t i = 0; i < n; ++i) acc[i] = unit_->mul(c, x[i]);
        first = false;
      } else {
        for (std::size_t i = 0; i < n; ++i) acc[i] = unit_->add(acc[i], unit_->mul(c, x[i]));
      }
    }
    if (first) std::fill(acc.begin(), acc.end(), i64{0});
  }

  void square_n_impl(std::span<const i64> x, std::span<i64> out) override {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = unit_->mul(x[i], x[i]);
  }

  void window_sum_n_impl(std::size_t w, std::span<const i64> padded,
                         std::span<i64> out) override {
    std::vector<i64> terms;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::span<const i64> window = padded.subspan(i, w);
      terms.assign(window.begin(), window.end());
      out[i] = tree_sum(terms, *unit_);
    }
  }

 private:
  ArithmeticUnit* unit_;
};

}  // namespace xbs::oracle
