// Lock-free per-operator mailboxes: the lower half of the sharded scheduling
// control plane (see DESIGN.md §1).
//
// A `Mailbox` is an MPSC message queue plus a four-state scheduling word:
//
//   kIdle    -- no pending work visible; not in any ready structure
//   kQueued  -- registered in the policy's ReadyQueue, waiting for a worker
//   kActive  -- claimed by exactly one worker (actor-model exclusivity)
//   kRetired -- terminal: the operator's query was removed; all claims fail
//
// Producers append with a lock-free Treiber push (`Push`) and only touch the
// policy's ReadyQueue on the kIdle -> kQueued transition, so steady-state
// Enqueue to a busy operator is wait-free apart from one CAS. Consumers claim
// a mailbox by CAS-ing the state word to kActive; while active they own the
// consumer-private ordered buffer (FIFO or local-priority order) that the
// inbox drains into. Messages therefore move: producer push -> inbox ->
// (owner drain) -> ordered buffer -> PopBest.
//
// The release protocol (scheduler-side, see DispatchScheduler) closes
// the classic missed-wakeup race: the owner publishes kIdle *before*
// re-checking `size()`, and a producer increments `size()` *before* reading
// the state word, so with sequentially consistent operations at least one of
// the two sides observes the other and re-queues the operator.
//
// Ready-queue entries are validated by *epoch*: the state word packs a
// generation counter that bumps on every transition into kQueued (a "queued
// session"). An entry minted in one session can never claim a later one --
// without this, a high-priority entry left over from a consumed urgent
// message would act as a priority ticket for whatever low-priority backlog
// the operator was later re-queued with.
//
// Retirement (query hot-remove): `BeginRetire()` raises a sticky flag that
// makes every later `Push` fail, then the scheduler claims the mailbox,
// purges whatever backlog remains (with accounting -- no message is silently
// lost), and parks the state word at kRetired with a bumped epoch. The epoch
// bump plus the terminal state mean a lazy ReadyQueue entry minted for the
// operator in any earlier session can never be claimed again; the word never
// leaves kRetired except for a transient purge reclaim when a racing push
// slipped in between the flag and the final store.
//
// Inbox reclamation. Inbox nodes are recycled as live objects through a
// RecycleStash (common/pool.h) instead of the heap: Push takes one from the
// pushing thread's cache, and the draining owner parks each node in its own
// cache after moving the message out, so a steady-state message costs zero
// allocations. Recycling needs no deferred or epoch reclamation queue:
//  - Producers only ever *push*. The CAS `head == expected` stays correct
//    even if `expected` was drained and recycled in between (classic ABA),
//    because a recycled node that became head again *is* genuinely the
//    current head -- the push links in front of it either way.
//  - DrainInbox detaches the whole chain with one exchange, after which the
//    drainer is the sole owner of every node in it; no other thread can
//    still hold a pointer to a node it parks, so reuse never aliases a live
//    reference.
// The epoch in the state word fences cross-session reuse of the *operator*;
// node recycling only ever reuses the link.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/id_table.h"
#include "common/ids.h"
#include "common/pool.h"
#include "common/ring_queue.h"
#include "common/time.h"
#include "dataflow/message.h"

namespace cameo {

/// How the consumer-private buffer orders messages.
enum class MailboxOrder {
  kFifo,           // arrival order (FIFO / Orleans / Slot)
  kLocalPriority,  // (PRI_local, message id) min-order (Cameo)
};

class Mailbox {
 public:
  enum class State : int { kIdle = 0, kQueued = 1, kActive = 2, kRetired = 3 };

  explicit Mailbox(MailboxOrder order) : order_(order) {}
  ~Mailbox();

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // ---- producer side (any thread) ----

  /// Lock-free append. The size increment is sequenced *before* the node
  /// becomes reachable, which the release protocol relies on. Returns false
  /// (message dropped) once the mailbox is retiring; the caller must account
  /// the rejection.
  bool Push(Message m);

  /// Messages pushed but not yet popped (inbox + ordered buffer). May
  /// transiently over-count a push in flight; never under-counts one that
  /// completed.
  std::int64_t size() const { return size_.load(std::memory_order_seq_cst); }

  State state() const { return StateOf(word_.load(std::memory_order_seq_cst)); }
  std::uint64_t epoch() const {
    return EpochOf(word_.load(std::memory_order_seq_cst));
  }
  /// True iff the mailbox is still in queued session `epoch` (entry
  /// validation without a claim attempt; may go stale immediately).
  bool InQueuedSession(std::uint64_t epoch) const {
    return word_.load(std::memory_order_seq_cst) == Pack(State::kQueued, epoch);
  }
  /// The current queued session's epoch, or nullopt when not kQueued
  /// (single consistent load of the state word).
  std::optional<std::uint64_t> QueuedEpoch() const {
    std::uint64_t w = word_.load(std::memory_order_seq_cst);
    if (StateOf(w) != State::kQueued) return std::nullopt;
    return EpochOf(w);
  }

  /// kIdle -> kQueued, opening a new queued session. The winner stores the
  /// session epoch in `epoch_out` and registers the operator in the
  /// ReadyQueue under it.
  bool TryMarkQueued(std::uint64_t& epoch_out);

  /// kQueued -> kActive, but only if the mailbox is still in queued session
  /// `epoch`. Failure means the ReadyQueue entry was stale (lazy deletion)
  /// and must be skipped. Fails unconditionally once retired.
  bool TryClaimQueued(std::uint64_t epoch);

  /// Direct claim for the quantum-continuation path: succeeds from kIdle or
  /// kQueued, any epoch (a claim from kQueued strands stale ReadyQueue
  /// entries, which epoch validation skips). Never claims a retired mailbox.
  bool TryClaim();

  /// kIdle -> kActive inside the owner's release loop.
  bool TryReclaim();

  // ---- consumer side (owner only: state == kActive) ----

  /// Moves everything currently in the inbox into the ordered buffer.
  void DrainInbox();

  bool buffer_empty() const { return buffer_.empty() && heap_.empty(); }
  /// Messages currently in the ordered buffer (owner only).
  std::size_t buffered() const { return buffer_.size() + heap_.size(); }
  /// Head of the ordered buffer (must be non-empty).
  const Message& PeekBest() const;
  /// Pops the head of the ordered buffer and decrements size().
  Message PopBest();

  /// kActive -> kQueued, opening a new queued session; returns its epoch.
  /// The caller must push a matching ReadyQueue entry afterwards.
  std::uint64_t ReleaseToQueued();
  /// kActive -> kIdle. The caller MUST re-check size() afterwards and
  /// TryReclaim if it is non-zero (release protocol, see header comment).
  void ReleaseToIdle();

  // ---- retirement (query hot-remove) ----

  /// Sticky: every Push after this returns false. The scheduler completes
  /// retirement by purging the backlog and parking the word at kRetired.
  void BeginRetire() { retiring_.store(true, std::memory_order_seq_cst); }
  bool retiring() const { return retiring_.load(std::memory_order_seq_cst); }

  /// kActive -> kRetired with a bumped epoch (owner only). Terminal apart
  /// from TryReclaimRetired.
  void ReleaseToRetired();
  /// kRetired -> kActive, used only by retire purgers when a racing push
  /// landed after the final store; the claimer purges and re-retires.
  bool TryReclaimRetired();
  /// Owner only: discards the inbox and the ordered buffer, returning how
  /// many messages were dropped (size() is decremented accordingly).
  std::int64_t PurgeBacklog();

  // ---- Cameo ready-key dedup hint (advisory; any thread) ----

  /// Global priority this operator is currently registered under; kTimeMax
  /// when unknown/claimed. Purely an optimization to skip redundant
  /// ReadyQueue re-inserts -- never load-bearing for correctness.
  Priority registered_pri() const {
    return registered_pri_.load(std::memory_order_relaxed);
  }
  void set_registered_pri(Priority p) {
    registered_pri_.store(p, std::memory_order_relaxed);
  }
  /// Lowers registered_pri to `p` if it improves it; returns true if lowered.
  bool TryLowerRegisteredPri(Priority p);

 private:
  /// Inbox link, recycled through NodeStash (see "Inbox reclamation" in
  /// the header comment).
  struct Node {
    Message msg;
    Node* next = nullptr;
  };
  using NodeStash = RecycleStash<std::unique_ptr<Node>>;

  /// True when the run's head, not the heap's, is the best message.
  bool RunFirst() const;

  // The state word packs (epoch << 2) | state so claim validation and the
  // state transition are one atomic compare-exchange.
  static constexpr std::uint64_t Pack(State s, std::uint64_t epoch) {
    return (epoch << 2) | static_cast<std::uint64_t>(s);
  }
  static constexpr State StateOf(std::uint64_t word) {
    return static_cast<State>(word & 3);
  }
  static constexpr std::uint64_t EpochOf(std::uint64_t word) {
    return word >> 2;
  }

  const MailboxOrder order_;
  std::atomic<Node*> inbox_{nullptr};  // Treiber stack; drained wholesale
  std::atomic<std::int64_t> size_{0};
  std::atomic<std::uint64_t> word_{Pack(State::kIdle, 0)};
  std::atomic<bool> retiring_{false};
  std::atomic<Priority> registered_pri_{kTimeMax};

  // Owner-only ordered buffer: a sorted run plus a straggler heap; the best
  // message is the smaller of their heads. The run is a RingQueue rather
  // than a deque: deque block churn would re-introduce a heap allocation
  // every few messages.
  RingQueue<Message> buffer_;  // sorted run: arrivals at or past its tail
  std::vector<Message> heap_;  // min-heap on (pri_local, id) of the rest;
                               // always empty under kFifo
};

/// The owner-side release protocol. When work remains, `prepare(mb)` runs
/// *before* the kActive -> kQueued transition -- the last point where the
/// caller still owns the buffer and may PeekBest() to compute a ready key --
/// and its result is handed to `insert_ready(token, epoch)` *after* the
/// transition (so a popped entry can validate against the new queued
/// session; the buffer must not be touched then, as a competing claim may
/// already own it). With an empty buffer the owner publishes kIdle and
/// re-checks for a racing producer, reclaiming if one slipped in. Returns
/// true when the mailbox was re-queued. The caller must hold the claim
/// (state == kActive) and must have handled retirement first (schedulers
/// route retiring mailboxes through their purge path instead).
template <typename PrepareFn, typename InsertReadyFn>
bool ReleaseMailbox(Mailbox& mb, PrepareFn&& prepare,
                    InsertReadyFn&& insert_ready) {
  for (;;) {
    mb.DrainInbox();
    if (!mb.buffer_empty()) {
      auto token = prepare(mb);
      std::uint64_t epoch = mb.ReleaseToQueued();
      insert_ready(token, epoch);
      return true;
    }
    mb.ReleaseToIdle();
    if (mb.size() == 0) return false;
    // A producer pushed between our drain and the kIdle store; take the
    // mailbox back and loop (the push may still be landing -- bounded spin).
    if (!mb.TryReclaim()) return false;  // another thread owns it now
  }
}

/// OperatorId -> Mailbox on the dense id table. Lookups are lock-free; an
/// insert (first message of a new operator) takes a mutex. Mailboxes are
/// never destroyed or unmapped -- a retired operator's mailbox stays in the
/// table parked at kRetired, so a stale id can never be resurrected with a
/// fresh mailbox by a late Enqueue.
class MailboxTable {
 public:
  explicit MailboxTable(MailboxOrder order) : order_(order) {}

  MailboxTable(const MailboxTable&) = delete;
  MailboxTable& operator=(const MailboxTable&) = delete;

  /// Lock-free lookup; nullptr if `op` has never been seen.
  Mailbox* Find(OperatorId op) const { return index_.Find(op); }

  /// Lookup-or-create (slow path takes the grow mutex).
  Mailbox& Get(OperatorId op) {
    return index_.GetOrCreate(
        op, [this] { return std::make_unique<Mailbox>(order_); });
  }

 private:
  const MailboxOrder order_;
  IdTable<OperatorId, Mailbox> index_;
};

}  // namespace cameo
