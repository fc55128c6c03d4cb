// Detached ready-queues: the upper half of the sharded scheduling control
// plane. A ReadyQueue orders *operator ids only* -- messages never pass
// through it -- and is guarded by its own small mutex, so the per-message
// Enqueue path (a lock-free mailbox push) stays contention-free and only the
// empty -> non-empty registration and worker dispatch touch a lock.
//
// All variants use lazy deletion: entries are never removed when an operator
// is claimed through another path (quantum continuation, a duplicate
// priority-raise insert). Every entry carries the epoch of the queued
// session it was minted in (see mailbox.h); a popped entry is validated by
// the caller with an epoch-checked Mailbox CAS (kQueued@epoch -> kActive),
// so an entry can never claim a later re-queue of the same operator at a
// different priority. Stale entries simply fail the CAS and are skipped.
// This keeps every ReadyQueue operation O(log n) or O(1) under a lock held
// for a handful of instructions.
//
// Query hot-remove adds one eager path: `EraseOps` drops every entry for a
// retired operator set so the queues do not accumulate dead ids under tenant
// churn. Correctness never depends on it -- a surviving stale entry still
// fails the epoch CAS against the kRetired mailbox -- it only bounds memory
// and pop-side skip work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/ring_queue.h"
#include "dataflow/context.h"

namespace cameo {

/// Global ordering key: (PRI_global, message id). The id tie-break keeps
/// equal-priority dispatch deterministic and FIFO.
struct ReadyKey {
  Priority pri = 0;
  std::int64_t seq = 0;
  friend bool operator<(const ReadyKey& a, const ReadyKey& b) {
    if (a.pri != b.pri) return a.pri < b.pri;
    return a.seq < b.seq;
  }
};

/// Cameo: a min-heap of (key, operator). Duplicate entries per operator are
/// allowed (a priority-raising arrival inserts a second, better entry rather
/// than rebalancing the old one); validation on pop discards the losers.
class CameoReadyQueue {
 public:
  struct Entry {
    ReadyKey key;
    OperatorId op;
    std::uint64_t epoch = 0;
  };

  void Push(ReadyKey key, OperatorId op, std::uint64_t epoch) {
    std::lock_guard lock(mu_);
    heap_.push_back(Entry{key, op, epoch});
    std::push_heap(heap_.begin(), heap_.end(), KeyGreater{});
  }

  std::optional<Entry> Pop() {
    std::lock_guard lock(mu_);
    if (heap_.empty()) return std::nullopt;
    Entry top = heap_.front();
    PopTopLocked();
    return top;
  }

  /// Drops stale top entries (per `still_queued(op, epoch)`) and returns the
  /// first live top key, if any. The result is advisory: it may go stale as
  /// soon as the lock is released, which only perturbs quantum yield
  /// decisions.
  template <typename StillQueuedFn>
  std::optional<ReadyKey> CleanTopKey(StillQueuedFn&& still_queued) {
    std::lock_guard lock(mu_);
    while (!heap_.empty() &&
           !still_queued(heap_.front().op, heap_.front().epoch)) {
      PopTopLocked();
    }
    if (heap_.empty()) return std::nullopt;
    return heap_.front().key;
  }

  bool empty() const {
    std::lock_guard lock(mu_);
    return heap_.empty();
  }

  /// Drops every entry whose operator is in `ops` and restores the heap.
  void EraseOps(const std::unordered_set<OperatorId>& ops) {
    std::lock_guard lock(mu_);
    auto it = std::remove_if(heap_.begin(), heap_.end(), [&](const Entry& e) {
      return ops.count(e.op) > 0;
    });
    if (it == heap_.end()) return;
    heap_.erase(it, heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), KeyGreater{});
  }

 private:
  // std heap algorithms build max-heaps, so "greater" yields the min-heap.
  struct KeyGreater {
    bool operator()(const Entry& a, const Entry& b) const {
      return b.key < a.key;
    }
  };

  void PopTopLocked() {
    std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
    heap_.pop_back();
  }

  mutable std::mutex mu_;
  std::vector<Entry> heap_;
};

/// An (operator, queued-session epoch) registration.
struct ReadyEntry {
  OperatorId op;
  std::uint64_t epoch = 0;
};

/// State kept per dense id (worker or operator) in a vector indexed by the
/// id: the entry for `id`, or nullptr if `id` is invalid or past the end.
template <typename V, typename Tag>
auto* DenseFind(V& by_id, Id<Tag> id) {
  const auto i = static_cast<std::size_t>(id.value);
  return id.valid() && i < by_id.size() ? &by_id[i] : nullptr;
}

/// The entry for `id`, growing the vector to cover it (callers hold the lock
/// that guards the vector).
template <typename T, typename Tag>
T& DenseAt(std::vector<T>& by_id, Id<Tag> id) {
  CAMEO_EXPECTS(id.valid());
  const auto i = static_cast<std::size_t>(id.value);
  if (i >= by_id.size()) by_id.resize(i + 1);
  return by_id[i];
}

/// FIFO: operators extracted in registration order.
class FifoReadyQueue {
 public:
  void Push(OperatorId op, std::uint64_t epoch) {
    std::lock_guard lock(mu_);
    queue_.push_back(ReadyEntry{op, epoch});
  }

  std::optional<ReadyEntry> Pop() {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return std::nullopt;
    ReadyEntry e = queue_.front();
    queue_.pop_front();
    return e;
  }

  bool empty() const {
    std::lock_guard lock(mu_);
    return queue_.empty();
  }

  void EraseOps(const std::unordered_set<OperatorId>& ops) {
    std::lock_guard lock(mu_);
    queue_.erase_if(
        [&](const ReadyEntry& e) { return ops.count(e.op) > 0; });
  }

 private:
  mutable std::mutex mu_;
  // RingQueue, not deque: steady-state registration churn must not allocate.
  RingQueue<ReadyEntry> queue_;
};

/// Orleans ConcurrentBag model: per-worker LIFO bags, a global FIFO queue,
/// and round-robin stealing of the oldest entry from other workers' bags.
class OrleansReadyState {
 public:
  void PushLocal(WorkerId producer, OperatorId op, std::uint64_t epoch) {
    std::lock_guard lock(mu_);
    DenseAt(bags_, producer).push_back(ReadyEntry{op, epoch});
  }

  void PushGlobal(OperatorId op, std::uint64_t epoch) {
    std::lock_guard lock(mu_);
    global_.push_back(ReadyEntry{op, epoch});
  }

  void RegisterWorker(WorkerId w) {
    std::lock_guard lock(mu_);
    for (WorkerId seen : worker_order_) {
      if (seen == w) return;
    }
    worker_order_.push_back(w);
  }

  /// Pops candidates in bag -> global -> steal order, claiming each with
  /// `try_claim(op, epoch)` (an epoch-checked Mailbox kQueued -> kActive
  /// CAS); stale entries are dropped. Returns the first operator
  /// successfully claimed.
  template <typename TryClaimFn>
  std::optional<OperatorId> Take(WorkerId w, TryClaimFn&& try_claim) {
    std::lock_guard lock(mu_);
    // 1. Own bag, LIFO (ConcurrentBag's same-thread fast path).
    if (std::vector<ReadyEntry>* mine = DenseFind(bags_, w)) {
      while (!mine->empty()) {
        ReadyEntry e = mine->back();
        mine->pop_back();
        if (try_claim(e.op, e.epoch)) return e.op;
      }
    }
    // 2. Global queue, FIFO.
    while (!global_.empty()) {
      ReadyEntry e = global_.front();
      global_.pop_front();
      if (try_claim(e.op, e.epoch)) return e.op;
    }
    // 3. Steal the oldest entry from another worker's bag.
    for (std::size_t i = 0; i < worker_order_.size(); ++i) {
      steal_cursor_ = (steal_cursor_ + 1) % worker_order_.size();
      WorkerId victim = worker_order_[steal_cursor_];
      if (victim == w) continue;
      std::vector<ReadyEntry>* bag = DenseFind(bags_, victim);
      if (bag == nullptr) continue;
      while (!bag->empty()) {
        ReadyEntry e = bag->front();
        bag->erase(bag->begin());
        if (try_claim(e.op, e.epoch)) return e.op;
      }
    }
    return std::nullopt;
  }

  void EraseOps(const std::unordered_set<OperatorId>& ops) {
    std::lock_guard lock(mu_);
    auto in_ops = [&](const ReadyEntry& e) { return ops.count(e.op) > 0; };
    for (std::vector<ReadyEntry>& bag : bags_) {
      bag.erase(std::remove_if(bag.begin(), bag.end(), in_ops), bag.end());
    }
    global_.erase_if(in_ops);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<ReadyEntry>> bags_;  // indexed by worker id
  RingQueue<ReadyEntry> global_;
  std::vector<WorkerId> worker_order_;
  std::size_t steal_cursor_ = 0;
};

/// Slot: one FIFO run queue per pinned worker; no cross-slot visibility.
class SlotReadyQueues {
 public:
  void Push(WorkerId w, OperatorId op, std::uint64_t epoch) {
    std::lock_guard lock(mu_);
    DenseAt(queues_, w).push_back(ReadyEntry{op, epoch});
  }

  std::optional<ReadyEntry> Pop(WorkerId w) {
    std::lock_guard lock(mu_);
    RingQueue<ReadyEntry>* q = DenseFind(queues_, w);
    if (q == nullptr || q->empty()) return std::nullopt;
    ReadyEntry e = q->front();
    q->pop_front();
    return e;
  }

  bool empty(WorkerId w) const {
    std::lock_guard lock(mu_);
    const RingQueue<ReadyEntry>* q = DenseFind(queues_, w);
    return q == nullptr || q->empty();
  }

  void EraseOps(const std::unordered_set<OperatorId>& ops) {
    std::lock_guard lock(mu_);
    for (RingQueue<ReadyEntry>& q : queues_) {
      q.erase_if([&](const ReadyEntry& e) { return ops.count(e.op) > 0; });
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<RingQueue<ReadyEntry>> queues_;  // indexed by worker id
};

}  // namespace cameo
