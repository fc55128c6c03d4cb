#include "sched/orleans_scheduler.h"

#include <unordered_set>

#include "common/check.h"

namespace cameo {

OrleansScheduler::OrleansScheduler(SchedulerConfig config, int num_workers)
    : Scheduler(config, MailboxOrder::kFifo) {
  for (int w = 0; w < num_workers; ++w) ready_.RegisterWorker(WorkerId{w});
}

void OrleansScheduler::Release(OperatorId op, Mailbox& mb, WorkerId w,
                               bool to_global) {
  if (mb.retiring()) {
    FinishRetire(mb, w);
    return;
  }
  ReleaseMailbox(
      mb, [](Mailbox&) { return 0; },
      [this, op, w, to_global](int, std::uint64_t epoch) {
        if (to_global || !w.valid()) {
          ready_.PushGlobal(op, epoch);
        } else {
          ready_.PushLocal(w, op, epoch);  // work stays near its worker
        }
      });
  if (mb.retiring() && mb.TryClaim()) FinishRetire(mb, w);
}

void OrleansScheduler::PurgeReady(const std::vector<OperatorId>& ops) {
  ready_.EraseOps(std::unordered_set<OperatorId>(ops.begin(), ops.end()));
}

std::size_t OrleansScheduler::Dispatch(Mailbox& mb, WorkerId w,
                                       std::size_t max,
                                       std::vector<Message>& out) {
  // The bag model has no cross-operator urgency: drain the claimed
  // activation's next `max` messages unconditionally.
  return DrainClaimed(mb, w, max, out, [](Mailbox&) { return true; });
}

void OrleansScheduler::Enqueue(Message m, WorkerId producer, SimTime now) {
  m.enqueue_time = now;
  const OperatorId op = m.target;
  Mailbox& mb = table_.Get(op);
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (!mb.Push(std::move(m))) {  // operator retired: reject, with accounting
    pending_.fetch_sub(1, std::memory_order_relaxed);
    shards_.rejected.Inc(shard_of(producer));
    return;
  }
  shards_.enqueued.Inc(shard_of(producer));
  for (;;) {
    Mailbox::State s = mb.state();
    if (s == Mailbox::State::kRetired) {
      DiscardIntoRetired(mb, producer);
      return;
    }
    if (s != Mailbox::State::kIdle) return;
    std::uint64_t epoch = 0;
    if (mb.TryMarkQueued(epoch)) {
      if (producer.valid()) {
        ready_.PushLocal(producer, op, epoch);  // thread-local fast path
      } else {
        ready_.PushGlobal(op, epoch);
      }
      return;
    }
  }
}

std::size_t OrleansScheduler::DequeueBatch(WorkerId w, SimTime now,
                                           std::size_t max_messages,
                                           std::vector<Message>& out) {
  ready_.RegisterWorker(w);
  WorkerSlot& sl = slot(w);

  if (sl.has_current) {
    Mailbox* mb = table_.Find(sl.current);
    if (mb != nullptr && mb->size() > 0 && mb->TryClaim()) {
      if (mb->retiring()) {  // current operator's query was removed
        FinishRetire(*mb, w);
        sl.has_current = false;
      } else {
        mb->DrainInbox();
        if (mb->buffer_empty()) {
          Release(sl.current, *mb, w, /*to_global=*/false);
        } else {
          bool cont = now - sl.quantum_start < config_.quantum;
          if (cont) {
            shards_.continuations.Inc(shard_of(w));
            return Dispatch(*mb, w, max_messages, out);
          }
          // Quantum expired: yield the turn to the global tail.
          Release(sl.current, *mb, w, /*to_global=*/true);
        }
      }
    }
  }

  for (;;) {
    auto next = ready_.Take(w, [this](OperatorId id, std::uint64_t epoch) {
      Mailbox* mb = table_.Find(id);
      return mb != nullptr && mb->TryClaimQueued(epoch);
    });
    if (!next.has_value()) break;
    Mailbox& mb = *table_.Find(*next);
    if (mb.retiring()) {  // removed id: discard its backlog, never dispatch
      FinishRetire(mb, w);
      continue;
    }
    mb.DrainInbox();
    if (mb.buffer_empty()) {  // defensive: kQueued implies pending work
      Release(*next, mb, w, /*to_global=*/false);
      continue;
    }
    if (sl.has_current && sl.current != *next) {
      shards_.operator_swaps.Inc(shard_of(w));
    }
    sl.current = *next;
    sl.has_current = true;
    sl.quantum_start = now;
    return Dispatch(mb, w, max_messages, out);
  }

  // Nothing anywhere else: resume the current operator if it still has work
  // (its yielded entry may have been claimed and exhausted above).
  if (sl.has_current) {
    Mailbox* mb = table_.Find(sl.current);
    if (mb != nullptr && mb->size() > 0 && mb->TryClaim()) {
      if (mb->retiring()) {
        FinishRetire(*mb, w);
        sl.has_current = false;
        return 0;
      }
      mb->DrainInbox();
      if (!mb->buffer_empty()) {
        sl.quantum_start = now;
        shards_.continuations.Inc(shard_of(w));
        return Dispatch(*mb, w, max_messages, out);
      }
      Release(sl.current, *mb, w, /*to_global=*/false);
    }
  }
  return 0;
}

void OrleansScheduler::OnComplete(OperatorId op, WorkerId w, SimTime /*now*/) {
  Mailbox* mb = table_.Find(op);
  CAMEO_EXPECTS(mb != nullptr && mb->state() == Mailbox::State::kActive);
  Release(op, *mb, w, /*to_global=*/false);
}

}  // namespace cameo
