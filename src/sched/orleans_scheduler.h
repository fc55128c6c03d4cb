// Model of the default Orleans scheduler (paper §6): a global run queue
// backed by a ConcurrentBag, which "optimizes processing throughput by
// prioritizing processing thread-local tasks over the global ones".
//
// Behavioural model:
//  - work produced by an invocation on worker w lands in w's local bag,
//    consumed LIFO (ConcurrentBag's same-thread fast path);
//  - external arrivals land in the global FIFO queue;
//  - a worker takes local work first, then global, then steals the oldest
//    entry from another worker's bag;
//  - at quantum expiry the current operator yields to the *global* tail;
//    with nothing else runnable the worker resumes it.
//
// This reproduces the depth-first, locality-chasing behaviour that gives
// Orleans good single-query cache locality (paper: IPQ4) but deadline-blind
// tail latency under multi-tenancy. The policy half of a DispatchScheduler:
// OrleansReadyState (bags/global/steal) under its own small lock.
#pragma once

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class OrleansScheduler final
    : public DispatchScheduler<OrleansScheduler, OrleansReadyState> {
 public:
  /// Workers 0..num_workers-1 join the steal order up front, in index
  /// order; any other worker joins on its first DequeueBatch.
  explicit OrleansScheduler(SchedulerConfig config = {}, int num_workers = 0)
      : DispatchScheduler(config, MailboxOrder::kFifo) {
    for (int w = 0; w < num_workers; ++w) ready_.RegisterWorker(WorkerId{w});
  }

  std::string name() const override { return "Orleans"; }

 private:
  friend DispatchScheduler;

  static constexpr bool kResumeWhenIdle = true;

  /// Producer-made work and released backlogs stay in their worker's bag; a
  /// quantum yield and external arrivals go to the global tail.
  void Requeue(OperatorId op, NoToken, std::uint64_t epoch, WorkerId w,
               bool yield) {
    if (yield || !w.valid()) {
      ready_.PushGlobal(op, epoch);
    } else {
      ready_.PushLocal(w, op, epoch);
    }
  }
  bool KeepPastQuantum(WorkerId, Mailbox&) { return false; }
  std::optional<Claim> PopClaim(WorkerId w) {
    ready_.RegisterWorker(w);
    Mailbox* claimed = nullptr;
    auto op = ready_.Take(w, [this, &claimed](OperatorId id,
                                              std::uint64_t epoch) {
      Mailbox* mb = table_.Find(id);
      if (mb == nullptr || !mb->TryClaimQueued(epoch)) return false;
      claimed = mb;
      return true;
    });
    if (!op.has_value()) return std::nullopt;
    return Claim{*op, claimed};
  }
};

}  // namespace cameo
