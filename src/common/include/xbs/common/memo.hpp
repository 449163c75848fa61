/// \file memo.hpp
/// \brief The lookup-or-build memo: one implementation behind the
/// process-wide multiplier models, product and square tables and
/// energy-model stage costs, and behind the design memo an Algorithm 1 batch
/// keeps for the length of one call (explore/parallel.cpp).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "xbs/common/sync.hpp"
#include "xbs/common/types.hpp"

namespace xbs::common {

/// Insert-only map from an equality-comparable Key to an immutable Value,
/// shared by every thread that asks for the key (stream workers, explore
/// workers, the OPEN path of the epoll loop).
///
/// get() looks the key up under the lock. On a miss it runs the build with
/// no lock held — so a cold build never stalls a warm lookup, and a build may
/// itself get() from another memo — and then publishes insert-if-absent: when
/// a racer published the key first, every caller receives that value and
/// this copy is dropped. A build that throws publishes nothing; its exception
/// reaches the caller and the next get() of the key builds again.
///
/// Rank kTableCache: a leaf, nothing else is acquired under the lock.
/// Entries are cache-line aligned, so a publish never writes the line a
/// concurrent worker's hit reads, and the scan is linear: a process holds a
/// few hundred entries at most.
template <class Key, class Value>
class Memo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  /// The value published under \p key; \p build (a callable returning
  /// anything convertible to Ptr) makes it when there is none yet.
  template <class Build>
  [[nodiscard]] Ptr get(const Key& key, Build&& build) XBS_EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      if (Ptr warm = find_locked(key)) return warm;
    }
    Ptr built = std::forward<Build>(build)();
    const MutexLock lock(mutex_);
    if (Ptr won = find_locked(key)) return won;
    ++builds_;
    return entries_.emplace_back(Entry{key, std::move(built)}).value;
  }

  /// Values published so far: cold builds, not hits (a racer's dropped copy
  /// is not counted).
  [[nodiscard]] u64 builds() const XBS_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return builds_;
  }

 private:
  struct alignas(64) Entry {
    Key key;
    Ptr value;
  };

  [[nodiscard]] Ptr find_locked(const Key& key) const XBS_REQUIRES(mutex_) {
    for (const Entry& e : entries_) {
      if (e.key == key) return e.value;
    }
    return nullptr;
  }

  mutable Mutex mutex_{LockRank::kTableCache};
  std::vector<Entry> entries_ XBS_GUARDED_BY(mutex_);
  u64 builds_ XBS_GUARDED_BY(mutex_) = 0;
};

}  // namespace xbs::common
