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
  std::lock_guard lock(assign_mu_);
  CAMEO_EXPECTS(num_workers >= num_workers_);
  num_workers_ = num_workers;
}

}  // namespace cameo
