// Scheduler interface shared by the discrete-event simulator and the
// wall-clock thread runtime, plus the one dispatch protocol every roster
// member runs (DispatchScheduler).
//
// A scheduler owns all pending messages, grouped per target operator in a
// MailboxTable (actor-model exclusivity: an operator never runs on two
// workers at once). Workers call DequeueBatch when free and OnComplete when
// an invocation finishes. The re-scheduling quantum (paper §5.2, default
// 1 ms) controls how long a worker sticks with its current operator before
// consulting the ready queue again; quantum 0 re-evaluates after every
// message.
//
// DispatchScheduler implements Enqueue, DequeueBatch, OnComplete, the
// release/retire path and PurgeReady once. A roster member (Cameo, FIFO,
// Orleans, Slot) supplies only its ready-queue policy: which structure an
// operator is registered in, which operator is claimed next, whether the
// current one keeps running past its quantum, and whether a batched drain
// stops early. The hooks resolve at compile time.
//
// Concurrency contract (see DESIGN.md §1): Enqueue may be called from any
// thread concurrently with DequeueBatch/OnComplete on worker threads.
// Enqueue appends lock-free to the target operator's mailbox and only
// touches the policy's ReadyQueue (its own small lock) on an empty ->
// non-empty transition (and, for Cameo, on a priority-raising arrival);
// DequeueBatch/OnComplete claim and release mailboxes with atomic state
// transitions. Statistics are sharded per worker and merged on read.
//
// Dynamic multi-tenancy: RetireOperators() retires a removed query's
// mailboxes -- each rejects every later Enqueue (counted in
// `stats().rejected`), has its remaining backlog purged with accounting
// (`stats().purged`), and parks at the terminal kRetired state so no lazy
// ready-queue entry can ever claim it again. SetWorkerTarget() lets the
// wall-clock runtime grow its worker pool; only Slot, which pins operators
// to workers, has work to do there (Orleans registers a new worker in its
// steal order on that worker's first dequeue).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/time.h"
#include "dataflow/message.h"
#include "metrics/sharded_stats.h"
#include "sched/mailbox.h"

namespace cameo {

/// The scheduler roster (DESIGN.md §4), shared by both execution backends.
enum class SchedulerKind { kCameo, kFifo, kOrleans, kSlot };

std::string ToString(SchedulerKind kind);

struct SchedulerConfig {
  /// Minimum re-scheduling grain. While a worker's elapsed time on one
  /// operator is below this, it keeps draining that operator's mailbox.
  Duration quantum = kMillisecond;
  /// Starvation guard (§6.3): a message's effective global priority never
  /// exceeds enqueue_time + starvation_limit, so long-waiting work is
  /// eventually ordered FIFO. kTimeMax disables the guard (paper default).
  Duration starvation_limit = kTimeMax;
  /// Claim-and-drain batching (paper §6 / Fig. 13 knob): the maximum number
  /// of messages a worker drains from one claimed mailbox per activation.
  /// One claim + one release amortize over the whole batch. 1 reproduces the
  /// classic claim-one dispatch exactly (fixed-seed sim replays are
  /// bit-identical). Cameo re-checks the ready queue's head between the
  /// batch's messages and cuts the drain short when a strictly more urgent
  /// operator is waiting, so priority semantics survive batching.
  int batch_size = 1;
};

/// Merged snapshot of the per-worker stat shards. Exact once workers are
/// quiescent (after Drain()).
struct SchedulerStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dispatched = 0;
  /// Worker switched from one operator to a different one.
  std::uint64_t operator_swaps = 0;
  /// Worker kept its current operator at a quantum boundary.
  std::uint64_t continuations = 0;
  /// Enqueues refused because the target operator was retired. Not counted
  /// in `enqueued`.
  std::uint64_t rejected = 0;
  /// Messages accepted earlier but discarded by retirement purges. At
  /// quiescence, enqueued == dispatched + purged.
  std::uint64_t purged = 0;
  /// Always 0: nothing refuses work before the scheduler. The field stays
  /// only because the repository benchmark's sharded-run check
  /// (perfbench/sim.cpp) still reads it; drop it with that read.
  std::uint64_t shed = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Hands a message to the scheduler. `producer` identifies the worker whose
  /// invocation emitted it (invalid WorkerId for external arrivals); the
  /// Orleans bag model uses it for thread-local affinity. Thread-safe.
  virtual void Enqueue(Message m, WorkerId producer, SimTime now) = 0;

  /// Claims the next runnable operator for worker `w` and drains up to
  /// `max_messages` of its pending messages into `out` (appended, in the
  /// mailbox's dispatch order). Every message in the batch targets the same
  /// operator, which stays claimed (kActive): after invoking the batch the
  /// worker must call OnComplete exactly once with that operator. Returns
  /// the number of messages appended; 0 when nothing is runnable. Policy
  /// invariants are re-checked between messages (see
  /// SchedulerConfig::batch_size). Thread-safe; at most one concurrent call
  /// per worker id.
  virtual std::size_t DequeueBatch(WorkerId w, SimTime now,
                                   std::size_t max_messages,
                                   std::vector<Message>& out) = 0;

  /// DequeueBatch with the configured batch size.
  std::size_t DequeueBatch(WorkerId w, SimTime now, std::vector<Message>& out) {
    return DequeueBatch(w, now, static_cast<std::size_t>(config_.batch_size),
                        out);
  }

  /// Single-message convenience wrapper over DequeueBatch (tests and
  /// quantum-granularity callers); nullopt when nothing is runnable.
  std::optional<Message> Dequeue(WorkerId w, SimTime now);

  /// Reports that worker `w` finished an invocation (single message or a
  /// drained batch) of `op`. Must be called by the worker that dequeued it.
  virtual void OnComplete(OperatorId op, WorkerId w, SimTime now) = 0;

  /// Retires a removed query's operators: marks their mailboxes retiring
  /// (later Enqueues are rejected and counted), purges whatever backlog is
  /// claimable right now (counted in stats().purged), erases their lazy
  /// ready-queue entries, and parks each mailbox at kRetired. A mailbox a
  /// worker currently holds kActive finishes retirement in that worker's
  /// release path. Returns the number of messages purged by this call.
  /// Thread-safe; may run concurrently with Enqueue/Dequeue/OnComplete.
  std::int64_t RetireOperators(const std::vector<OperatorId>& ops);

  /// Announces that the runtime's worker pool grows to `num_workers`, before
  /// the new workers start. The default is a no-op; only Slot, which places
  /// operators by worker count, overrides.
  virtual void SetWorkerTarget(int num_workers) { (void)num_workers; }

  std::size_t pending() const {
    std::int64_t p = pending_.load(std::memory_order_relaxed);
    return p > 0 ? static_cast<std::size_t>(p) : 0;
  }

  virtual std::string name() const = 0;

  SchedulerStats stats() const {
    SchedulerStats s;
    s.enqueued = shards_.enqueued.Total();
    s.dispatched = shards_.dispatched.Total();
    s.operator_swaps = shards_.operator_swaps.Total();
    s.continuations = shards_.continuations.Total();
    s.rejected = shards_.rejected.Total();
    s.purged = shards_.purged.Total();
    return s;
  }

  const SchedulerConfig& config() const { return config_; }

  /// Upper bound on worker ids; slots are pre-allocated so each worker
  /// mutates only its own cache line with no map insert races. Backends
  /// validate their worker count against this at construction.
  static constexpr std::int64_t kMaxWorkers = 256;

 protected:
  struct alignas(64) WorkerSlot {
    OperatorId current;  // operator this worker last ran
    SimTime quantum_start = 0;
    bool has_current = false;
  };

  Scheduler(SchedulerConfig config, MailboxOrder order)
      : config_(config), table_(order), slots_(kMaxWorkers) {
    // Fail at construction, not deep inside the first dispatch: 0 would trip
    // the drain loop's precondition and a negative value would wrap into an
    // unbounded drain.
    CAMEO_CHECK(config_.batch_size >= 1 &&
                "SchedulerConfig::batch_size must be >= 1");
  }

  WorkerSlot& slot(WorkerId w) {
    CAMEO_EXPECTS(w.valid() && w.value < kMaxWorkers);
    return slots_[static_cast<std::size_t>(w.value)];
  }

  std::size_t shard_of(WorkerId w) const {
    return w.valid() ? static_cast<std::size_t>(w.value)
                     : ThisThreadStatShard();
  }

  struct StatShards {
    ShardedCounter enqueued;
    ShardedCounter dispatched;
    ShardedCounter operator_swaps;
    ShardedCounter continuations;
    ShardedCounter rejected;
    ShardedCounter purged;
  };

  /// Erases the retiring operators' entries from the subclass's ready
  /// structure(s) (eager cleanup; correctness rests on epoch validation).
  virtual void PurgeReady(const std::vector<OperatorId>& ops) = 0;

  /// Owner-side completion of a retire: purges the claimed mailbox with
  /// accounting and parks it at kRetired, reclaiming if a racing push lands
  /// after the final store. Call instead of ReleaseMailbox whenever
  /// `mb.retiring()` is observed while holding the claim. Returns the number
  /// of messages purged.
  std::int64_t FinishRetire(Mailbox& mb, WorkerId w) {
    std::int64_t total = 0;
    for (;;) {
      std::int64_t purged = mb.PurgeBacklog();
      if (purged > 0) {
        total += purged;
        pending_.fetch_sub(purged, std::memory_order_relaxed);
        shards_.purged.Inc(shard_of(w), static_cast<std::uint64_t>(purged));
      }
      mb.ReleaseToRetired();
      if (mb.size() == 0) return total;
      // A push raced the retiring flag; take the word back and purge again.
      if (!mb.TryReclaimRetired()) return total;  // another purger owns it
    }
  }

  SchedulerConfig config_;
  MailboxTable table_;
  StatShards shards_;
  std::atomic<std::int64_t> pending_{0};
  std::vector<WorkerSlot> slots_;
};

/// Ready token of the schedulers whose ready structures order operator ids
/// alone (FIFO, Orleans, Slot).
struct NoToken {};

/// The one claim/dispatch protocol every roster member runs (DESIGN.md §4
/// tabulates the hooks per scheduler). `Derived` supplies only its
/// ready-queue policy, as hooks resolved at compile time (CRTP: no indirect
/// call and no allocation per message). It must define Requeue and
/// KeepPastQuantum and may hide any default in the "default hooks" block:
///   ReadyToken(m)                  ordering key of an arrival
///   ReleaseToken(mb)               ordering key of a released backlog,
///                                  taken while the caller still owns it
///   Register(op, mb, t, epoch, p)  idle -> queued, by producer `p`
///   OnQueuedArrival(op, mb, t)     arrival at a queued operator; false
///                                  re-reads the state
///   Requeue(op, t, epoch, w, yield)  release by worker `w`; `yield` when
///                                  its quantum expired
///   KeepPastQuantum(w, mb)         keep the current operator past its quantum
///   PopReady(w), PopClaim(w)       next entry; pop-and-claim the next operator
///   OnClaim(mb)                    a mailbox was just claimed
///   KeepDraining(mb)               re-check before each batched message
///                                  after the first
///   kResumeWhenIdle                nothing else runnable: resume the
///                                  worker's last operator
template <typename Derived, typename ReadyQueue>
class DispatchScheduler : public Scheduler {
 public:
  void Enqueue(Message m, WorkerId producer, SimTime now) final {
    m.enqueue_time = now;
    const OperatorId op = m.target;
    const auto token = self().ReadyToken(m);
    Mailbox& mb = table_.Get(op);
    pending_.fetch_add(1, std::memory_order_relaxed);
    if (!mb.Push(std::move(m))) {  // operator retired: reject, with accounting
      pending_.fetch_sub(1, std::memory_order_relaxed);
      shards_.rejected.Inc(shard_of(producer));
      return;
    }
    shards_.enqueued.Inc(shard_of(producer));
    for (;;) {
      switch (mb.state()) {
        case Mailbox::State::kActive:
          return;  // the owner's release re-check will pick the message up
        case Mailbox::State::kRetired:
          // Retirement finished after our push slipped past the flag; purge
          // the stragglers back out.
          if (mb.size() > 0 && mb.TryReclaimRetired()) {
            FinishRetire(mb, producer);
          }
          return;
        case Mailbox::State::kQueued:
          if (self().OnQueuedArrival(op, mb, token)) return;
          break;  // the queued session moved; re-read the state
        case Mailbox::State::kIdle: {
          std::uint64_t epoch = 0;
          if (mb.TryMarkQueued(epoch)) {
            self().Register(op, mb, token, epoch, producer);
            return;
          }
          break;  // lost the transition race; re-read the state
        }
      }
    }
  }

  std::size_t DequeueBatch(WorkerId w, SimTime now, std::size_t max_messages,
                           std::vector<Message>& out) final {
    WorkerSlot& sl = slot(w);

    // Continuation: keep draining the current operator within the quantum,
    // or past it when the policy sees nothing better waiting (paper §5.2).
    if (Mailbox* mb = ReclaimCurrent(sl, w)) {
      bool cont = now - sl.quantum_start < config_.quantum;
      if (!cont && self().KeepPastQuantum(w, *mb)) {
        cont = true;
        sl.quantum_start = now;  // start a fresh quantum
      }
      if (cont) {
        shards_.continuations.Inc(shard_of(w));
        return Drain(*mb, w, max_messages, out);
      }
      Release(sl.current, *mb, w, /*yield=*/true);
    }

    // Dispatch the policy's next operator; stale entries fail the epoch
    // claim inside PopClaim and are skipped (lazy deletion).
    while (std::optional<Claim> c = self().PopClaim(w)) {
      Mailbox& mb = *c->mb;
      if (mb.retiring()) {  // removed id: discard its backlog, never dispatch
        FinishRetire(mb, w);
        continue;
      }
      self().OnClaim(mb);
      mb.DrainInbox();
      if (mb.buffer_empty()) {  // defensive: kQueued implies pending work
        Release(c->op, mb, w, /*yield=*/false);
        continue;
      }
      if (sl.has_current && sl.current != c->op) {
        shards_.operator_swaps.Inc(shard_of(w));
      }
      sl.current = c->op;
      sl.has_current = true;
      sl.quantum_start = now;
      return Drain(mb, w, max_messages, out);
    }

    // Nothing anywhere else: resume the current operator if it still has
    // work (its yielded entry may have been claimed and exhausted above).
    if constexpr (Derived::kResumeWhenIdle) {
      if (Mailbox* mb = ReclaimCurrent(sl, w)) {
        sl.quantum_start = now;
        shards_.continuations.Inc(shard_of(w));
        return Drain(*mb, w, max_messages, out);
      }
    }
    return 0;
  }
  using Scheduler::DequeueBatch;

  void OnComplete(OperatorId op, WorkerId w, SimTime /*now*/) final {
    Mailbox* mb = table_.Find(op);
    CAMEO_EXPECTS(mb != nullptr && mb->state() == Mailbox::State::kActive);
    Release(op, *mb, w, /*yield=*/false);
  }

 protected:
  using Scheduler::Scheduler;

  /// A claimed operator: its mailbox is kActive and owned by the caller.
  struct Claim {
    OperatorId op;
    Mailbox* mb;
  };

  void PurgeReady(const std::vector<OperatorId>& ops) final {
    ready_.EraseOps(std::unordered_set<OperatorId>(ops.begin(), ops.end()));
  }

  // ---- default hooks (see the class comment) ----

  static constexpr bool kResumeWhenIdle = false;
  NoToken ReadyToken(const Message&) const { return {}; }
  NoToken ReleaseToken(Mailbox&) { return {}; }
  template <typename Token>
  void Register(OperatorId op, Mailbox&, Token token, std::uint64_t epoch,
                WorkerId producer) {
    self().Requeue(op, token, epoch, producer, /*yield=*/false);
  }
  template <typename Token>
  bool OnQueuedArrival(OperatorId, Mailbox&, Token) {
    return true;  // already registered: the entry covers this arrival
  }
  auto PopReady(WorkerId) { return ready_.Pop(); }
  std::optional<Claim> PopClaim(WorkerId w) {
    while (auto e = self().PopReady(w)) {
      Mailbox* mb = table_.Find(e->op);
      if (mb != nullptr && mb->TryClaimQueued(e->epoch)) {
        return Claim{e->op, mb};
      }
    }
    return std::nullopt;
  }
  void OnClaim(Mailbox&) {}
  bool KeepDraining(Mailbox&) { return true; }

  ReadyQueue ready_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  /// Claims worker `w`'s current operator if it still has work. Returns its
  /// mailbox (kActive, inbox drained, buffer non-empty), or nullptr after
  /// finishing a retire or releasing a mailbox a competing claim emptied.
  Mailbox* ReclaimCurrent(WorkerSlot& sl, WorkerId w) {
    if (!sl.has_current) return nullptr;
    Mailbox* mb = table_.Find(sl.current);
    if (mb == nullptr || mb->size() == 0 || !mb->TryClaim()) return nullptr;
    if (mb->retiring()) {  // current operator's query was removed
      FinishRetire(*mb, w);
      sl.has_current = false;
      return nullptr;
    }
    self().OnClaim(*mb);
    mb->DrainInbox();
    if (mb->buffer_empty()) {
      Release(sl.current, *mb, w, /*yield=*/false);
      return nullptr;
    }
    return mb;
  }

  /// Pops up to `max` messages from a claimed mailbox into `out`, batching
  /// the pending/dispatched accounting into one update. The first message
  /// is unconditional (a claim always dispatches at least one); KeepDraining
  /// is consulted before every later one.
  std::size_t Drain(Mailbox& mb, WorkerId w, std::size_t max,
                    std::vector<Message>& out) {
    CAMEO_EXPECTS(max >= 1 && !mb.buffer_empty());
    std::size_t n = 0;
    while (n < max && !mb.buffer_empty()) {
      if (n > 0 && !self().KeepDraining(mb)) break;
      out.push_back(mb.PopBest());
      ++n;
    }
    pending_.fetch_sub(static_cast<std::int64_t>(n),
                       std::memory_order_relaxed);
    shards_.dispatched.Inc(shard_of(w), n);
    return n;
  }

  /// Release protocol: re-queues a claimed mailbox that still has work (a
  /// yield when its quantum expired), idles an empty one, or finishes the
  /// retire of a removed operator.
  void Release(OperatorId op, Mailbox& mb, WorkerId w, bool yield) {
    if (mb.retiring()) {
      FinishRetire(mb, w);
      return;
    }
    ReleaseMailbox(
        mb, [this](Mailbox& m) { return self().ReleaseToken(m); },
        [this, op, w, yield](auto token, std::uint64_t epoch) {
          self().Requeue(op, token, epoch, w, yield);
        });
    // A retire that raced the release: whoever can still claim the mailbox
    // finishes the purge (see the retire protocol above).
    if (mb.retiring() && mb.TryClaim()) FinishRetire(mb, w);
  }
};

/// Shared factory used by both backends. `num_workers` sets the slot
/// scheduler's round-robin pinning and the Orleans scheduler's initial
/// steal order.
std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, int num_workers,
                                         const SchedulerConfig& config);

}  // namespace cameo
