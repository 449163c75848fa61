/// \file ring.hpp
/// \brief Ring-buffer helpers shared by every streaming delay line, plus the
/// bounded buffer ring behind the serving layer's loanable-chunk ingest.
///
/// Convention (used by the fixed-point stages' delay lines and window rings):
/// the ring holds the most recent |ring| samples, `head` is the next write
/// slot and therefore always holds the oldest retained sample; a fresh state
/// is all zeros with head == 0.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
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

/// Copy the newest min(|ring|, |x|) samples of \p x into the ring, leaving
/// it exactly as if every sample of \p x had been streamed through one at a
/// time.
template <typename Ring, typename Sample>
void ring_carry(Ring& ring, std::size_t& head, std::span<const Sample> x) {
  const std::size_t w = ring.size();
  const std::size_t n = x.size();
  // A zero-width ring retains nothing: explicit no-op so the `% w` advance
  // below can never divide by zero (reachable from a hand-built degenerate
  // stage config; head stays pinned at its only valid value).
  if (w == 0) {
    head = 0;
    return;
  }
  assert(head < w);
  if (n >= w) {
    for (std::size_t i = 0; i < w; ++i) ring[i] = x[n - w + i];
    head = 0;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      ring[head] = x[i];
      head = (head + 1) % w;
    }
  }
}

/// Write the last |ring|-1 retained samples, oldest first, into
/// dst[0 .. |ring|-2] — the history prefix a resumable chunked transform
/// prepends to its padded input (tap/window j of chunk output i then reads
/// the same operand the streaming scalar path would).
template <typename Ring, typename Dst>
void ring_history_prefix(const Ring& ring, std::size_t head, Dst& dst) {
  const std::size_t w = ring.size();
  // Zero-width rings have no history (and `% w` must never run): no-op.
  if (w == 0) return;
  assert(head < w);
  for (std::size_t j = 0; j + 1 < w; ++j) dst[j] = ring[(head + 1 + j) % w];
}

}  // namespace xbs
