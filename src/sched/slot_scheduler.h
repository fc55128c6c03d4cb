// Slot-based scheduler modeling Flink-style static resource allocation
// (paper §1, Fig. 1): every operator is pinned to one worker ("task slot")
// and workers only execute their own operators, FIFO. Isolation is perfect
// but idle slots cannot help overloaded ones, which is the low-utilization /
// over-provisioning pathology Cameo targets.
//
// The policy half of a DispatchScheduler: one SlotReadyQueues run queue per
// pinned worker.
#pragma once

#include <mutex>
#include <vector>

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class SlotScheduler final
    : public DispatchScheduler<SlotScheduler, SlotReadyQueues> {
 public:
  /// Operators are assigned to `num_workers` slots round-robin at first
  /// sight, unless pinned beforehand with Assign().
  SlotScheduler(int num_workers, SchedulerConfig config = {});

  /// Pins `op` to `worker` (call before the first message for `op`).
  void Assign(OperatorId op, WorkerId worker);

  std::string name() const override { return "Slot"; }

  WorkerId SlotOf(OperatorId op);

  /// Grows the slot count (never below the current one): existing pins stay,
  /// and operators seen from now on are spread round-robin over all slots.
  void SetWorkerTarget(int num_workers) override;

 private:
  friend DispatchScheduler;

  void Requeue(OperatorId op, NoToken, std::uint64_t epoch, WorkerId, bool) {
    ready_.Push(SlotOf(op), op, epoch);  // a yield rotates within the slot
  }
  bool KeepPastQuantum(WorkerId w, Mailbox&) { return ready_.empty(w); }
  std::optional<ReadyEntry> PopReady(WorkerId w) { return ready_.Pop(w); }

  std::mutex assign_mu_;
  int num_workers_;
  std::int64_t next_slot_ = 0;
  std::vector<WorkerId> assignment_;  // by operator id; invalid = unpinned
};

}  // namespace cameo
