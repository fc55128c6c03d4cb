// Scheduler interface shared by the discrete-event simulator and the
// wall-clock thread runtime.
//
// A scheduler owns all pending messages, grouped per target operator in a
// MailboxTable (actor-model exclusivity: an operator never runs on two
// workers at once). Workers call Dequeue when free and OnComplete when an
// invocation finishes. The re-scheduling quantum (paper §5.2, default 1 ms)
// controls how long a worker sticks with its current operator before
// consulting the ready queue again; quantum 0 re-evaluates after every
// message.
//
// Concurrency contract (see DESIGN.md §1): Enqueue may be called from any
// thread concurrently with Dequeue/OnComplete on worker threads. Enqueue
// appends lock-free to the target operator's mailbox and only touches the
// policy's ReadyQueue (its own small lock) on an empty -> non-empty
// transition; Dequeue/OnComplete claim and release mailboxes with atomic
// state transitions. Statistics are sharded per worker and merged on read.
//
// Dynamic multi-tenancy: RetireOperators() retires a removed query's
// mailboxes -- each rejects every later Enqueue (counted in
// `stats().rejected`), has its remaining backlog purged with accounting
// (`stats().purged`), and parks at the terminal kRetired state so no lazy
// ready-queue entry can ever claim it again. SetWorkerTarget() lets the
// wall-clock runtime grow and shrink its worker pool; only the slot
// scheduler (static pinning) has real work to do there.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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
  /// Messages refused by admission control before reaching the scheduler
  /// (overload shedding, shard_runtime.h). Not counted in `enqueued`.
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

  /// Announces the runtime's new worker-pool size. Call once with the new
  /// target before signalling shrinking workers to exit (so future work is
  /// placed within the surviving range) and once after they have exited (so
  /// work parked on dead workers' private structures is recovered). The
  /// default is a no-op; only placement-aware schedulers override.
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
    // DrainClaimed's precondition and a negative value would wrap into an
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

  /// Enqueue-side handler for the post-push state read seeing kRetired: our
  /// own push (and possibly others) landed after the final store, so purge
  /// it back out with accounting.
  void DiscardIntoRetired(Mailbox& mb, WorkerId w) {
    if (mb.size() > 0 && mb.TryReclaimRetired()) FinishRetire(mb, w);
  }

  /// The claim-and-drain core: pops up to `max` messages from a mailbox the
  /// caller has claimed (and already DrainInbox-ed) into `out`, batching the
  /// pending/dispatched accounting into one update. `keep_going(mb)` is the
  /// policy re-check, consulted before every message after the first --
  /// returning false cuts the batch short (the first message is
  /// unconditional: a claim always dispatches at least one). Returns the
  /// number of messages popped.
  template <typename KeepGoingFn>
  std::size_t DrainClaimed(Mailbox& mb, WorkerId w, std::size_t max,
                           std::vector<Message>& out,
                           KeepGoingFn&& keep_going) {
    CAMEO_EXPECTS(max >= 1 && !mb.buffer_empty());
    std::size_t n = 0;
    while (n < max && !mb.buffer_empty()) {
      if (n > 0 && !keep_going(mb)) break;
      out.push_back(mb.PopBest());
      ++n;
    }
    pending_.fetch_sub(static_cast<std::int64_t>(n),
                       std::memory_order_relaxed);
    shards_.dispatched.Inc(shard_of(w), n);
    return n;
  }

  SchedulerConfig config_;
  MailboxTable table_;
  StatShards shards_;
  std::atomic<std::int64_t> pending_{0};
  std::vector<WorkerSlot> slots_;
};

/// Shared factory used by both backends. `num_workers` sets the slot
/// scheduler's round-robin pinning and the Orleans scheduler's initial
/// steal order.
std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, int num_workers,
                                         const SchedulerConfig& config);

}  // namespace cameo
