/// \file unit.hpp
/// \brief Scalar arithmetic datapath — a thin adapter over the batched
/// kernels in kernel.hpp.
///
/// Every add/sub/multiply the Pan-Tompkins stages perform can go through an
/// ArithmeticUnit, so a stage can be re-targeted from exact native arithmetic
/// to any (k LSBs, adder kind, multiplier kind) configuration without
/// touching the signal-processing code — the software analogue of swapping
/// RTL arithmetic blocks. Block-oriented consumers (the pipeline, the
/// explorers) use the Kernel API directly; this scalar view remains as the
/// per-sample test oracle (tests/pt_oracle.hpp), the netlist-level
/// cross-validation and the micro benches' scalar path, and is bit-identical
/// to the kernels by construction.
#pragma once

#include "xbs/arith/kernel.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Abstract scalar datapath: all stage arithmetic can funnel through here.
class ArithmeticUnit {
 public:
  virtual ~ArithmeticUnit() = default;

  /// 32-bit adder block.
  [[nodiscard]] virtual i64 add(i64 a, i64 b) = 0;
  /// 32-bit adder-subtractor block.
  [[nodiscard]] virtual i64 sub(i64 a, i64 b) = 0;
  /// 16x16 signed multiplier block (32-bit product).
  [[nodiscard]] virtual i64 mul(i64 a, i64 b) = 0;

  [[nodiscard]] const OpCounts& counts() const noexcept { return counts_; }
  void reset_counts() noexcept { counts_ = OpCounts{}; }

 protected:
  OpCounts counts_;
};

/// Exact native arithmetic (the golden reference datapath).
class ExactUnit final : public ArithmeticUnit {
 public:
  [[nodiscard]] i64 add(i64 a, i64 b) override;
  [[nodiscard]] i64 sub(i64 a, i64 b) override;
  [[nodiscard]] i64 mul(i64 a, i64 b) override;

 private:
  ExactKernel kernel_;
};

/// Bit-accurate approximate datapath for one stage configuration.
class ApproxUnit final : public ArithmeticUnit {
 public:
  explicit ApproxUnit(const StageArithConfig& cfg);

  [[nodiscard]] const StageArithConfig& config() const noexcept { return kernel_.config(); }

  [[nodiscard]] i64 add(i64 a, i64 b) override;
  [[nodiscard]] i64 sub(i64 a, i64 b) override;
  [[nodiscard]] i64 mul(i64 a, i64 b) override;

 private:
  ApproxKernel kernel_;
};

/// Adapter in the other direction: presents any scalar ArithmeticUnit as a
/// Kernel, so block-oriented code (the stage transforms) can also run over a
/// caller-supplied unit — e.g. a counting or instrumented datapath in tests.
/// Batched calls devolve to the scalar loop; operation counts accrue on the
/// wrapped unit exactly as if the caller had streamed sample by sample.
class UnitKernel final : public Kernel {
 public:
  explicit UnitKernel(ArithmeticUnit& unit) noexcept : unit_(&unit) {}

  [[nodiscard]] i64 add1(i64 a, i64 b) const override { return unit_->add(a, b); }
  [[nodiscard]] i64 sub1(i64 a, i64 b) const override { return unit_->sub(a, b); }
  [[nodiscard]] i64 mul1(i64 a, i64 b) const override { return unit_->mul(a, b); }

 private:
  ArithmeticUnit* unit_;
};

}  // namespace xbs::arith
