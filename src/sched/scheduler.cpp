#include "sched/scheduler.h"

#include "sched/cameo_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/orleans_scheduler.h"
#include "sched/slot_scheduler.h"

namespace cameo {

std::optional<Message> Scheduler::Dequeue(WorkerId w, SimTime now) {
  // Scratch survives across calls so the single-message path stays
  // allocation-free too.
  static thread_local std::vector<Message> scratch;
  scratch.clear();
  if (DequeueBatch(w, now, 1, scratch) == 0) return std::nullopt;
  return std::move(scratch.front());
}

std::int64_t Scheduler::RetireOperators(const std::vector<OperatorId>& ops) {
  std::int64_t purged = 0;
  for (OperatorId op : ops) {
    // Get (not Find): an operator never enqueued to still gets a mailbox so
    // its id can never be resurrected by a late first message.
    Mailbox& mb = table_.Get(op);
    mb.BeginRetire();
    for (;;) {
      Mailbox::State s = mb.state();
      if (s == Mailbox::State::kActive) break;  // owner's release finishes it
      if (s == Mailbox::State::kRetired) {
        if (mb.size() == 0) break;
        if (!mb.TryReclaimRetired()) continue;  // racing purger; re-read
      } else if (!mb.TryClaim()) {
        continue;  // lost a kIdle/kQueued transition race; re-read
      }
      purged += FinishRetire(mb, WorkerId{});
      break;
    }
  }
  PurgeReady(ops);
  return purged;
}

std::string ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kCameo:
      return "Cameo";
    case SchedulerKind::kFifo:
      return "FIFO";
    case SchedulerKind::kOrleans:
      return "Orleans";
    case SchedulerKind::kSlot:
      return "Slot";
  }
  return "?";
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, int num_workers,
                                         const SchedulerConfig& config) {
  switch (kind) {
    case SchedulerKind::kCameo:
      return std::make_unique<CameoScheduler>(config);
    case SchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>(config);
    case SchedulerKind::kOrleans:
      return std::make_unique<OrleansScheduler>(config, num_workers);
    case SchedulerKind::kSlot:
      return std::make_unique<SlotScheduler>(num_workers, config);
  }
  CAMEO_CHECK(false && "unknown scheduler kind");
  return nullptr;
}

}  // namespace cameo
