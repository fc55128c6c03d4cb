#include "sched/slot_scheduler.h"

#include "common/check.h"

namespace cameo {

SlotScheduler::SlotScheduler(int num_workers, SchedulerConfig config)
    : DispatchScheduler(config, MailboxOrder::kFifo),
      num_workers_(num_workers) {
  CAMEO_EXPECTS(num_workers >= 1);
}

void SlotScheduler::Assign(OperatorId op, WorkerId worker) {
  std::lock_guard lock(assign_mu_);
  CAMEO_EXPECTS(worker.valid() && worker.value < num_workers_);
  DenseAt(assignment_, op) = worker;
}

WorkerId SlotScheduler::SlotOf(OperatorId op) {
  std::lock_guard lock(assign_mu_);
  WorkerId& w = DenseAt(assignment_, op);
  if (!w.valid()) w = WorkerId{next_slot_++ % num_workers_};
  return w;
}

void SlotScheduler::SetWorkerTarget(int num_workers) {
  CAMEO_EXPECTS(num_workers >= 1);
  {
    std::lock_guard lock(assign_mu_);
    num_workers_ = num_workers;
    // Re-pin stranded operators round-robin over the surviving slots, in
    // operator id order.
    for (WorkerId& w : assignment_) {
      if (w.value >= num_workers) {
        w = WorkerId{next_slot_ % num_workers};
        ++next_slot_;
      }
    }
  }
  // Ready entries parked on removed slots follow their operator's new pin.
  // Stale entries (their queued session already over) are re-pushed too;
  // they fail the epoch claim on pop, exactly like any lazy-deleted entry.
  for (const ReadyEntry& e : ready_.DrainSlotsBeyond(num_workers)) {
    ready_.Push(SlotOf(e.op), e.op, e.epoch);
  }
}

}  // namespace cameo
