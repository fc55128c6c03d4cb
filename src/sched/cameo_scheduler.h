// The Cameo scheduler (paper §5.2, Fig. 5(b)): the lower, *stateless* layer
// of the two-level architecture. It keeps
//   - per operator: pending messages ordered by PRI_local (inside the
//     operator's lock-free Mailbox), and
//   - globally: runnable operators ordered by PRI_global in a detached
//     CameoReadyQueue behind its own small lock.
// All priority information arrives inside each message's PriorityContext;
// the scheduler itself holds no per-job state.
//
// Enqueue appends lock-free to the target mailbox; the ReadyQueue is touched
// only on an empty -> non-empty transition or when an arrival strictly
// improves a queued operator's registered priority (a duplicate entry is
// inserted; pop-side validation discards the stale one).
//
// Quantum rule (paper): a worker keeps draining its current operator's
// mailbox; once the re-scheduling grain elapses it peeks at the ready queue
// and swaps only if a strictly higher-priority operator is waiting. The same
// peek runs between the messages of a batched drain.
//
// Starvation guard (§6.3): with a finite `starvation_limit`, a message's
// effective global priority is capped at enqueue_time + limit, so overload
// degrades to FIFO among long-waiting messages instead of unbounded delay.
#pragma once

#include <algorithm>

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class CameoScheduler final
    : public DispatchScheduler<CameoScheduler, CameoReadyQueue> {
 public:
  explicit CameoScheduler(SchedulerConfig config = {})
      : DispatchScheduler(config, MailboxOrder::kLocalPriority) {}

  std::string name() const override { return "Cameo"; }

  /// Global priority of the most urgent runnable operator (tests/telemetry).
  /// Compacts stale ready-queue entries as a side effect.
  std::optional<Priority> TopPriority() {
    auto top = CleanTopKey();
    if (!top.has_value()) return std::nullopt;
    return top->pri;
  }

 private:
  friend DispatchScheduler;

  Priority EffectivePri(const Message& m) const {
    Priority pri = m.pc.pri_global;
    const Duration limit = config_.starvation_limit;
    if (limit != kTimeMax) {
      // Saturating: enqueue_time + limit must not overflow.
      const SimTime t = m.enqueue_time;
      pri = std::min(pri, t > 0 && limit > kTimeMax - t ? kTimeMax : t + limit);
    }
    return pri;
  }

  std::optional<ReadyKey> CleanTopKey() {
    return ready_.CleanTopKey([this](OperatorId id, std::uint64_t epoch) {
      Mailbox* mb = table_.Find(id);
      return mb != nullptr && mb->InQueuedSession(epoch);
    });
  }

  /// True unless a strictly more urgent operator waits than the claimed
  /// mailbox's head. Advisory, like any peek: the head can move the instant
  /// the ready queue's lock drops, but a drain never runs past a head it has
  /// seen.
  bool HeadStillBest(Mailbox& mb) {
    auto top = CleanTopKey();
    return !top.has_value() || !(*top < ReadyToken(mb.PeekBest()));
  }

  // ---- DispatchScheduler hooks ----

  ReadyKey ReadyToken(const Message& m) const {
    return ReadyKey{EffectivePri(m), m.id.value};
  }
  ReadyKey ReleaseToken(Mailbox& mb) {  // owner-side: safe to peek
    ReadyKey key = ReadyToken(mb.PeekBest());
    mb.set_registered_pri(key.pri);
    return key;
  }
  void Register(OperatorId op, Mailbox& mb, ReadyKey key, std::uint64_t epoch,
                WorkerId) {
    mb.set_registered_pri(key.pri);
    ready_.Push(key, op, epoch);
  }
  /// Touches the ReadyQueue only when the arrival strictly improves the
  /// operator's registered priority (paper: "head may have changed").
  bool OnQueuedArrival(OperatorId op, Mailbox& mb, ReadyKey key) {
    auto epoch = mb.QueuedEpoch();
    if (!epoch.has_value()) return false;
    // A raced-away epoch only strands a stale entry; the message itself is
    // covered by the owner's release re-queue.
    if (mb.TryLowerRegisteredPri(key.pri)) ready_.Push(key, op, *epoch);
    return true;
  }
  void Requeue(OperatorId op, ReadyKey key, std::uint64_t epoch, WorkerId,
               bool) {
    ready_.Push(key, op, epoch);
  }
  bool KeepPastQuantum(WorkerId, Mailbox& mb) { return HeadStillBest(mb); }
  void OnClaim(Mailbox& mb) { mb.set_registered_pri(kPriorityFloor); }
  /// Re-checked before every batched message after the first, so an urgent
  /// arrival mid-batch waits at most one message, not batch_size.
  bool KeepDraining(Mailbox& mb) { return HeadStillBest(mb); }
};

}  // namespace cameo
