// The process-wide table store: the one owner of the multiplier models and
// the product and square tables the approximate kernels walk.
#include <utility>

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/common/memo.hpp"

namespace xbs::arith {
namespace {

/// One memo per kind of compiled LUT, keyed by the multiplier configuration
/// plus the operand a table is specialized on. Shared by every kernel in the
/// process: the sessions of a stream::StreamServer and the parallel
/// exploration workers hit it concurrently, and the values are immutable
/// once published.
struct TableStore {
  common::Memo<MultiplierConfig, RecursiveMultiplier> models;
  /// Magnitude-indexed product rows M[m] = multiply_u(|c|, m) — the
  /// expensive build, shared between +c and -c.
  common::Memo<std::pair<MultiplierConfig, u64>, TableVec> magnitude;
  /// Full signed per-coefficient tables
  /// P[u] = multiply_signed(c, sign_extend(u, w)), keyed by the
  /// sign-extended coefficient.
  common::Memo<std::pair<MultiplierConfig, i64>, TableVec> signed_coeff;
  /// Per-config square tables S[u] = multiply_signed(x, x),
  /// x = sign_extend(u, w).
  common::Memo<MultiplierConfig, TableVec> square;
};

TableStore& store() {
  static TableStore s;
  return s;
}

std::shared_ptr<const TableVec> get_magnitude_products(const MultiplierConfig& cfg,
                                                       u64 magnitude) {
  return store().magnitude.get({cfg, magnitude}, [&] {
    const auto model = get_multiplier(cfg);
    // Operand magnitudes of a w-bit signed multiplier span [0, 2^(w-1)]
    // (the upper bound is the magnitude of the most negative value).
    const std::size_t n = (std::size_t{1} << (cfg.width - 1)) + 1;
    auto table = std::make_shared<TableVec>(n);
    for (std::size_t m = 0; m < n; ++m) {
      // Same operand order as multiply_signed(c, x): the coefficient drives
      // the A port. Approximate arrays are not commutative, so this matters.
      (*table)[m] = static_cast<i64>(model->multiply_u(magnitude, static_cast<u64>(m)));
    }
    return table;
  });
}

}  // namespace

std::shared_ptr<const RecursiveMultiplier> get_multiplier(const MultiplierConfig& cfg) {
  return store().models.get(cfg, [&] { return std::make_shared<RecursiveMultiplier>(cfg); });
}

std::shared_ptr<const TableVec> get_signed_coeff_products(const MultiplierConfig& cfg,
                                                          i64 coeff) {
  const int w = cfg.width;
  const i64 c = sign_extend(to_unsigned_bits(coeff, w), w);
  return store().signed_coeff.get({cfg, c}, [&] {
    const bool neg = c < 0;
    const u64 mag = neg ? static_cast<u64>(-c) : static_cast<u64>(c);
    // Spread the magnitude row over both operand halves; bit-identical to
    // multiply_signed(c, x) by the sign-magnitude wrapper identity.
    const TableVec& row = *get_magnitude_products(cfg, mag);
    const std::size_t n = std::size_t{1} << w;
    const std::size_t half = n / 2;
    auto table = std::make_shared<TableVec>(n);
    TableVec& t = *table;
    // Non-negative operands u: |x| = u, and the product takes c's sign.
    for (std::size_t u = 0; u < half; ++u) t[u] = neg ? -row[u] : row[u];
    // Negative operands mirror them: |x| = n - u, and the opposite sign.
    for (std::size_t u = half; u < n; ++u) t[u] = neg ? row[n - u] : -row[n - u];
    return table;
  });
}

std::shared_ptr<const TableVec> get_square_products(const MultiplierConfig& cfg) {
  return store().square.get(cfg, [&] {
    const auto model = get_multiplier(cfg);
    const std::size_t n = std::size_t{1} << cfg.width;
    const std::size_t half = n / 2;
    auto table = std::make_shared<TableVec>(n);
    TableVec& t = *table;
    // The sign-magnitude wrapper makes multiply_signed(x, x) =
    // +multiply_u(|x|, |x|): the non-negative operands u hold the square
    // diagonal, and the negative ones mirror it (|x| = n - u; the most
    // negative value's magnitude, half, is the one entry with no
    // non-negative twin).
    for (std::size_t m = 0; m < half; ++m) {
      t[m] = static_cast<i64>(model->multiply_u(static_cast<u64>(m), static_cast<u64>(m)));
    }
    t[half] = static_cast<i64>(model->multiply_u(half, half));
    for (std::size_t u = half + 1; u < n; ++u) t[u] = t[n - u];
    return table;
  });
}

TableCacheStats table_cache_stats() noexcept {
  TableCacheStats s;
  s.multiplier_models = store().models.builds();
  s.magnitude_tables = store().magnitude.builds();
  s.signed_tables = store().signed_coeff.builds();
  s.square_tables = store().square.builds();
  return s;
}

}  // namespace xbs::arith
