// Append-only table indexed by a dense id, the registry primitive behind
// dynamic multi-tenancy (DESIGN.md §1): operator -> mailbox, converter,
// profiler entry or source channel; job -> runtime state; and the graph's
// own job, stage and operator tables. Every such id is handed out in order
// and never erased, so a flat array beats a hash map.
//
// Storage is a ladder of segments: segment k holds 2^k slots and covers ids
// [2^k - 1, 2^(k+1) - 1). A segment is allocated once, under the grow mutex,
// and never moves, so addresses handed out stay valid for the table's
// lifetime. Find is two acquire loads (segment, slot) and no hash; inserts
// write the slot before the id can escape to a reader. Values are owned by
// the table and destroyed with it.
//
// Deliberately no erase: retirement keeps entries mapped so a stale id can
// never be resurrected with a fresh value by a late lookup (see
// MailboxTable).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "common/check.h"

namespace cameo {

template <typename Id, typename T>
class IdTable {
 public:
  /// Ids must stay below this bound.
  static constexpr std::int64_t kMaxIds = std::int64_t{1} << 32;

  IdTable() = default;
  ~IdTable() {
    for (int k = 0; k < kSegments; ++k) {
      Slot* seg = segments_[k].load(std::memory_order_acquire);
      if (seg == nullptr) continue;
      for (std::size_t i = 0; i < (std::size_t{1} << k); ++i) {
        delete seg[i].load(std::memory_order_relaxed);
      }
      delete[] seg;
    }
  }

  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;

  /// Lock-free lookup; nullptr for an invalid or never-inserted id.
  T* Find(Id id) const {
    if (!id.valid() || id.value >= kMaxIds) return nullptr;
    const auto [k, off] = Locate(id);
    const Slot* seg = segments_[k].load(std::memory_order_acquire);
    return seg == nullptr ? nullptr : seg[off].load(std::memory_order_acquire);
  }

  /// Lookup-or-insert. `make()` builds the value (a std::unique_ptr) on the
  /// slow path, under the grow mutex.
  template <typename MakeFn>
  T& GetOrCreate(Id id, MakeFn&& make) {
    if (T* v = Find(id)) return *v;
    std::lock_guard lock(grow_mu_);
    return InsertLocked(id, make);
  }

  /// Batch insert under one lock; ids already present are skipped.
  /// `make(id)` builds each new value.
  template <typename Ids, typename MakeFn>
  void InsertAll(const Ids& ids, MakeFn&& make) {
    std::lock_guard lock(grow_mu_);
    for (const Id& id : ids) {
      InsertLocked(id, [&] { return make(id); });
    }
  }

  /// Entries inserted so far. Published after the entry's slot, so when ids
  /// are inserted densely in order, every id below size() is Find-able.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  using Slot = std::atomic<T*>;
  static constexpr int kSegments = 33;  // id kMaxIds - 1 sits in segment 32

  /// (segment, offset) of `id`: id + 1 = 2^k + offset.
  static std::pair<int, std::size_t> Locate(Id id) {
    const auto n = static_cast<std::uint64_t>(id.value) + 1;
    const int k = std::bit_width(n) - 1;
    return {k, static_cast<std::size_t>(n - (std::uint64_t{1} << k))};
  }

  template <typename MakeFn>
  T& InsertLocked(Id id, MakeFn&& make) {
    CAMEO_CHECK(id.valid() && id.value < kMaxIds);
    const auto [k, off] = Locate(id);
    Slot* seg = segments_[k].load(std::memory_order_relaxed);
    if (seg == nullptr) {
      seg = new Slot[std::size_t{1} << k]();
      segments_[k].store(seg, std::memory_order_release);
    }
    if (T* v = seg[off].load(std::memory_order_relaxed)) return *v;
    std::unique_ptr<T> made = make();
    T* v = made.release();
    seg[off].store(v, std::memory_order_release);
    size_.fetch_add(1, std::memory_order_release);
    return *v;
  }

  std::atomic<Slot*> segments_[kSegments] = {};
  std::mutex grow_mu_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace cameo
