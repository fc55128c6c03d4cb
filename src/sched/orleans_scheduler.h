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
//  - at quantum expiry the current operator yields to the *global* tail.
//
// This reproduces the depth-first, locality-chasing behaviour that gives
// Orleans good single-query cache locality (paper: IPQ4) but deadline-blind
// tail latency under multi-tenancy. Built on the sharded control plane:
// lock-free mailboxes + OrleansReadyState (bags/global/steal) under its own
// small lock.
#pragma once

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class OrleansScheduler final : public Scheduler {
 public:
  /// Workers 0..num_workers-1 join the steal order up front, in index
  /// order; any other worker joins on its first DequeueBatch.
  explicit OrleansScheduler(SchedulerConfig config = {}, int num_workers = 0);

  void Enqueue(Message m, WorkerId producer, SimTime now) override;
  std::size_t DequeueBatch(WorkerId w, SimTime now, std::size_t max_messages,
                           std::vector<Message>& out) override;
  using Scheduler::DequeueBatch;
  void OnComplete(OperatorId op, WorkerId w, SimTime now) override;

  std::string name() const override { return "Orleans"; }

  /// Worker shrink: flushes exiting workers' bags to the global queue (call
  /// after those workers have stopped) so their work stays reachable.
  void SetWorkerTarget(int num_workers) override {
    ready_.FlushBagsBeyond(num_workers);
  }

 protected:
  void PurgeReady(const std::vector<OperatorId>& ops) override;

 private:
  /// Releases a claimed mailbox; remaining work goes to worker `w`'s bag
  /// (bag locality) or, when `to_global` is set, to the global tail.
  void Release(OperatorId op, Mailbox& mb, WorkerId w, bool to_global);
  std::size_t Dispatch(Mailbox& mb, WorkerId w, std::size_t max,
                       std::vector<Message>& out);

  OrleansReadyState ready_;
};

}  // namespace cameo
