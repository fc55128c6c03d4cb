// Keyed operator state ("slates", after Muppet's per-key MapUpdate state):
// an insert-only int64 -> V hash map, sized for millions of live keys with
// zero steady-state heap allocations per message.
//
// The per-key accumulator map of the windowed kernels (AggWindowState in
// ops/agg_kernels.h). A window's store is filled, emitted once and cleared
// whole, so the layout is two vectors and no per-key deletion:
//  - **Dense entries.** Live (key, value) pairs sit in one vector in
//    insertion order. Emission copies them out; Clear() destroys only them.
//  - **Index table.** A power-of-two vector of `entry + 1` (0 = empty) is
//    probed linearly from KeyMix(key). Growth doubles it, reserves the
//    entries to match and re-indexes the live entries; Clear() zeroes it.
//    Both vectors keep their capacity across Clear(), so a windowed
//    operator that reuses a closed window's store for the next window
//    refills it without allocation or regrowth.
//  - **Deterministic iteration.** AppendSorted emits (key, value) pairs
//    sorted by key regardless of insertion order or history, so emission
//    order is replay-stable.
//
// Probes use the splitmix64 finalizer (KeyMix below) -- the same mixer the
// kKeyHash shuffle edge uses (dataflow/graph.cpp), so a store sharded by
// key hash sees its share of keys spread evenly even when user keys are
// sequential ids.
//
// Not thread-safe: a store belongs to one operator (operators are
// single-threaded actors).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace cameo {

/// splitmix64 finalizer: the shared key mixer of the slate store and the
/// kKeyHash partitioner. std::hash<int64> is the identity in common stdlibs,
/// which clusters sequential user ids onto neighboring replicas/slots.
inline std::uint64_t KeyMix(std::int64_t key) {
  auto x = static_cast<std::uint64_t>(key);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename V>
class SlateStore {
 public:
  /// Index slots of the first table; each growth doubles it.
  static constexpr std::size_t kMinCapacity = 512;

  /// Returns the slate for `key`, inserting a copy of `init` if absent.
  /// References stay valid until the next Probe/Clear (growth moves
  /// entries).
  V& Probe(std::int64_t key, V init = V{}) {
    if ((entries_.size() + 1) * 4 >= capacity() * 3) Grow();
    const std::size_t mask = capacity() - 1;
    for (std::size_t i = static_cast<std::size_t>(KeyMix(key)) & mask;;
         i = (i + 1) & mask) {
      const std::uint32_t e = index_[i];
      if (e == 0) {
        entries_.emplace_back(key, std::move(init));
        index_[i] = static_cast<std::uint32_t>(entries_.size());
        return entries_.back().second;
      }
      if (entries_[e - 1].first == key) return entries_[e - 1].second;
    }
  }

  /// The slate for `key`, or nullptr when absent.
  V* Find(std::int64_t key) {
    if (index_.empty()) return nullptr;
    const std::size_t mask = capacity() - 1;
    for (std::size_t i = static_cast<std::size_t>(KeyMix(key)) & mask;;
         i = (i + 1) & mask) {
      const std::uint32_t e = index_[i];
      if (e == 0) return nullptr;
      if (entries_[e - 1].first == key) return &entries_[e - 1].second;
    }
  }
  const V* Find(std::int64_t key) const {
    return const_cast<SlateStore*>(this)->Find(key);
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return index_.size(); }
  /// Index growths over the store's lifetime (the first table counts);
  /// benches assert this stops moving in steady state.
  std::uint64_t rehashes() const { return rehashes_; }

  /// Appends all (key, value) pairs to `out`, sorted by key -- the
  /// deterministic emission order (independent of insertion order).
  void AppendSorted(std::vector<std::pair<std::int64_t, V>>& out) const {
    const std::size_t first = out.size();
    out.insert(out.end(), entries_.begin(), entries_.end());
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  /// Drops every slate. Both vectors keep their capacity, so a store refilled
  /// to a similar size pays no allocation and no regrowth.
  void Clear() {
    entries_.clear();
    std::fill(index_.begin(), index_.end(), 0u);
  }

 private:
  void Grow() {
    const std::size_t cap = index_.empty() ? kMinCapacity : capacity() * 2;
    CAMEO_CHECK(cap <= std::numeric_limits<std::uint32_t>::max());
    index_.assign(cap, 0u);
    entries_.reserve(cap / 4 * 3);
    const std::size_t mask = cap - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i =
          static_cast<std::size_t>(KeyMix(entries_[e].first)) & mask;
      while (index_[i] != 0) i = (i + 1) & mask;
      index_[i] = static_cast<std::uint32_t>(e + 1);
    }
    ++rehashes_;
  }

  std::vector<std::pair<std::int64_t, V>> entries_;  // live, insertion order
  std::vector<std::uint32_t> index_;  // capacity() slots of entry + 1
  std::uint64_t rehashes_ = 0;
};

}  // namespace cameo
