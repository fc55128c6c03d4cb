// Keyed operator state ("slates", after Muppet's per-key MapUpdate state):
// an open-addressing int64 -> V hash map whose slot storage comes from
// Pool-backed slabs, sized for millions of live keys with zero steady-state
// heap allocations per message.
//
// The per-key accumulator map of the windowed kernels (FlatKeyMap in
// ops/agg_kernels.h is an alias of SlateStore<double>):
//  - **Erase + tombstone-aware rehash.** Deleted slots become tombstones so
//    probe chains stay intact. When tombstones pile up past half the live
//    size, the next growth check rehashes at the *same* capacity instead of
//    doubling, so insert/erase churn reaches a steady state instead of
//    growing forever.
//  - **Pooled slab storage.** Slots live in fixed-size slabs drawn from
//    Pool<Slab> (common/pool.h). Rehash acquires the new table's slabs, then
//    releases the old ones back to the pool -- after the first full cycle
//    the pool satisfies every rehash from recycled slabs and the store never
//    touches the heap again (the slab-directory vectors retain capacity).
//    Clear() keeps the slabs, so a windowed operator that reuses a closed
//    window's store for the next window refills it without regrowth.
//  - **Deterministic iteration.** AppendSorted emits (key, value) pairs
//    sorted by key regardless of hash-table layout or insertion/erase
//    history, so emission order is replay-stable.
//
// Probes use the splitmix64 finalizer (KeyMix below) -- the same mixer the
// kKeyHash shuffle edge uses (dataflow/graph.cpp), so a store sharded by
// key hash sees its share of keys spread evenly even when user keys are
// sequential ids.
//
// Not thread-safe: a store belongs to one operator (operators are
// single-threaded actors). The backing Pool is thread-safe, so stores on
// different workers recycle slabs through the same global pool.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/pool.h"

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
  /// Slots per slab. One slab of SlateStore<double> is ~12 KiB; Pool hands
  /// slabs out in batches, so even a 1M-key store warms the pool in a few
  /// hundred slab acquisitions.
  static constexpr std::size_t kSlabSlots = 512;

  SlateStore() = default;
  SlateStore(SlateStore&& other) noexcept { *this = std::move(other); }
  SlateStore& operator=(SlateStore&& other) noexcept {
    if (this != &other) {
      ReleaseSlabs(dir_);
      dir_ = std::move(other.dir_);
      spare_dir_ = std::move(other.spare_dir_);
      size_ = other.size_;
      tombs_ = other.tombs_;
      rehashes_ = other.rehashes_;
      other.dir_.clear();
      other.spare_dir_.clear();
      other.size_ = other.tombs_ = 0;
      other.rehashes_ = 0;
    }
    return *this;
  }
  SlateStore(const SlateStore&) = delete;
  SlateStore& operator=(const SlateStore&) = delete;
  ~SlateStore() { ReleaseSlabs(dir_); }

  /// Returns the slate for `key`, inserting a copy of `init` if absent.
  /// References stay valid until the next Probe/Erase/Clear (a rehash moves
  /// slots).
  V& Probe(std::int64_t key, V init = V{}) {
    if (NeedRehash()) Rehash();
    const std::size_t mask = capacity() - 1;
    std::size_t i = static_cast<std::size_t>(KeyMix(key)) & mask;
    std::size_t first_tomb = kNpos;
    for (;;) {
      Slot& s = SlotAt(i);
      if (s.state == kUsed) {
        if (s.key == key) return s.value;
      } else if (s.state == kTomb) {
        if (first_tomb == kNpos) first_tomb = i;
      } else {  // kEmpty: key is absent; reuse the first tombstone on the way
        Slot& dst = first_tomb == kNpos ? s : SlotAt(first_tomb);
        if (dst.state == kTomb) --tombs_;
        dst.state = kUsed;
        dst.key = key;
        dst.value = std::move(init);
        ++size_;
        return dst.value;
      }
      i = (i + 1) & mask;
    }
  }

  /// The slate for `key`, or nullptr when absent.
  V* Find(std::int64_t key) {
    if (dir_.empty()) return nullptr;
    const std::size_t mask = capacity() - 1;
    std::size_t i = static_cast<std::size_t>(KeyMix(key)) & mask;
    for (;;) {
      Slot& s = SlotAt(i);
      if (s.state == kUsed && s.key == key) return &s.value;
      if (s.state == kEmpty) return nullptr;
      i = (i + 1) & mask;
    }
  }
  const V* Find(std::int64_t key) const {
    return const_cast<SlateStore*>(this)->Find(key);
  }

  /// Deletes `key`'s slate (tombstoned). Returns false when absent.
  bool Erase(std::int64_t key) {
    if (dir_.empty()) return false;
    const std::size_t mask = capacity() - 1;
    std::size_t i = static_cast<std::size_t>(KeyMix(key)) & mask;
    for (;;) {
      Slot& s = SlotAt(i);
      if (s.state == kUsed && s.key == key) {
        s.state = kTomb;
        s.value = V{};  // drop payload resources eagerly
        --size_;
        ++tombs_;
        return true;
      }
      if (s.state == kEmpty) return false;
      i = (i + 1) & mask;
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return dir_.size() * kSlabSlots; }
  std::size_t tombstones() const { return tombs_; }
  /// Rehashes performed over the store's lifetime (growth *and* same-size
  /// tombstone sweeps); benches assert this stops moving in steady state.
  std::uint64_t rehashes() const { return rehashes_; }

  /// Visits every live slate in unspecified (layout) order. `fn(key, value)`
  /// must not insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slab* slab : dir_) {
      for (Slot& s : slab->slots) {
        if (s.state == kUsed) fn(s.key, s.value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slab* slab : dir_) {
      for (const Slot& s : slab->slots) {
        if (s.state == kUsed) fn(s.key, s.value);
      }
    }
  }

  /// Appends all (key, value) pairs to `out`, sorted by key -- the
  /// deterministic emission order (independent of layout and history).
  void AppendSorted(std::vector<std::pair<std::int64_t, V>>& out) const {
    std::size_t first = out.size();
    ForEach([&](std::int64_t k, const V& v) { out.emplace_back(k, v); });
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  /// Drops every slate but keeps the slabs, so a store refilled to a similar
  /// size (per-batch scratch) pays no regrowth rehashes. The slabs go back
  /// to the pool when the store is destroyed or moved over.
  void Clear() {
    for (Slab* slab : dir_) {
      for (Slot& s : slab->slots) {
        if (s.state == kUsed) s.value = V{};
        s.state = kEmpty;
      }
    }
    size_ = tombs_ = 0;
  }

 private:
  enum : std::uint8_t { kEmpty = 0, kUsed = 1, kTomb = 2 };
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  struct Slot {
    std::int64_t key = 0;
    V value{};
    std::uint8_t state = kEmpty;
  };
  struct Slab {
    Slot slots[kSlabSlots];
  };

  Slot& SlotAt(std::size_t i) {
    return dir_[i / kSlabSlots]->slots[i % kSlabSlots];
  }
  const Slot& SlotAt(std::size_t i) const {
    return dir_[i / kSlabSlots]->slots[i % kSlabSlots];
  }

  bool NeedRehash() const {
    // Load factor counts tombstones: they lengthen probe chains exactly like
    // live slots until a rehash sweeps them.
    return dir_.empty() || (size_ + tombs_ + 1) * 4 >= capacity() * 3;
  }

  void Rehash() {
    auto& pool = Pool<Slab>::Global();
    // Doubling when live entries dominate; same-size sweep when tombstones
    // do (churn steady state: capacity stops growing, tombs reset to 0).
    std::size_t slabs = dir_.empty() ? 1 : dir_.size();
    if (tombs_ < size_ || dir_.empty()) {
      slabs = dir_.empty() ? 1 : dir_.size() * 2;
    }
    spare_dir_.clear();
    spare_dir_.reserve(slabs);
    for (std::size_t i = 0; i < slabs; ++i) {
      spare_dir_.push_back(pool.New());
    }
    std::swap(dir_, spare_dir_);
    const std::size_t old_size = size_;
    size_ = tombs_ = 0;
    const std::size_t mask = capacity() - 1;
    for (Slab* slab : spare_dir_) {
      for (Slot& s : slab->slots) {
        if (s.state != kUsed) continue;
        std::size_t i = static_cast<std::size_t>(KeyMix(s.key)) & mask;
        while (SlotAt(i).state == kUsed) i = (i + 1) & mask;
        Slot& dst = SlotAt(i);
        dst.state = kUsed;
        dst.key = s.key;
        dst.value = std::move(s.value);
        ++size_;
      }
    }
    CAMEO_CHECK(size_ == old_size);
    ReleaseSlabs(spare_dir_);
    spare_dir_.clear();
    ++rehashes_;
  }

  static void ReleaseSlabs(std::vector<Slab*>& dir) {
    auto& pool = Pool<Slab>::Global();
    for (Slab* slab : dir) pool.Delete(slab);
  }

  std::vector<Slab*> dir_;        // capacity() / kSlabSlots slabs
  std::vector<Slab*> spare_dir_;  // rehash scratch; capacity reused
  std::size_t size_ = 0;
  std::size_t tombs_ = 0;
  std::uint64_t rehashes_ = 0;
};

}  // namespace cameo
