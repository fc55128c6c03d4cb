// FIFO baseline (paper §6: "for the FIFO scheduler, we insert operators into
// the global run queue and extract them in FIFO order; an operator processes
// its messages in FIFO order"). Quantum semantics match the other schedulers:
// a worker drains its current operator within the re-scheduling grain, then
// moves the operator to the tail and takes the head (round-robin), unless
// nothing else waits.
//
// The policy half of a DispatchScheduler: a FifoReadyQueue of operator ids
// behind its own small lock, with lazy deletion validated by mailbox state
// CASes.
#pragma once

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class FifoScheduler final
    : public DispatchScheduler<FifoScheduler, FifoReadyQueue> {
 public:
  explicit FifoScheduler(SchedulerConfig config = {})
      : DispatchScheduler(config, MailboxOrder::kFifo) {}

  std::string name() const override { return "FIFO"; }

 private:
  friend DispatchScheduler;

  void Requeue(OperatorId op, NoToken, std::uint64_t epoch, WorkerId, bool) {
    ready_.Push(op, epoch);  // a yield rotates to the tail
  }
  bool KeepPastQuantum(WorkerId, Mailbox&) { return ready_.empty(); }
};

}  // namespace cameo
