/// \file ring.hpp
/// \brief The bounded buffer ring behind the serving layer's loanable-chunk
/// ingest.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace xbs {

/// A bounded LIFO ring of reusable heap buffers (or any movable object that
/// is expensive to re-create). Producers take() a recycled buffer instead of
/// allocating; consumers put() it back instead of freeing. LIFO order keeps
/// the hottest buffer (the one most recently touched, still in cache) first
/// in line. The bound caps idle memory: put() on a full ring tells the
/// caller to let the buffer die.
///
/// Not thread-safe by itself — the serving layer keeps one ring per session
/// slot under the owning shard's lock, where take/put are O(1) moves.
template <typename T>
class BufferRing {
 public:
  BufferRing() = default;
  explicit BufferRing(std::size_t capacity) : cap_(capacity) { items_.reserve(capacity); }

  /// Adjust the bound. Items beyond the new bound are released immediately;
  /// storage for the bound is reserved up front so put() never allocates
  /// (it runs under locks and inside noexcept cleanup paths).
  void set_capacity(std::size_t capacity) {
    cap_ = capacity;
    if (items_.size() > cap_) items_.resize(cap_);
    items_.reserve(cap_);
  }

  /// Take the most recently recycled item. False when empty (caller makes a
  /// fresh one).
  [[nodiscard]] bool take(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.back());
    items_.pop_back();
    return true;
  }

  /// Recycle an item. False when the ring is at capacity (caller drops it).
  bool put(T&& item) {
    if (items_.size() >= cap_) return false;
    items_.push_back(std::move(item));
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  void clear() noexcept { items_.clear(); }

 private:
  std::vector<T> items_;
  std::size_t cap_ = 0;
};

}  // namespace xbs
