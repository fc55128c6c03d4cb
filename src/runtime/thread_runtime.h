// Wall-clock runtime: the same schedulers, context converters, operators and
// metrics as the simulator, driven by a real thread pool instead of the
// discrete-event engine. Used by the runnable examples and the scheduling-
// overhead microbenchmarks (Fig. 12); the large parameter-sweep experiments
// use sim::Cluster (see DESIGN.md).
//
// Per message, workers run the protocol step shared with the simulator
// (core/message_step.h), hooked to the wall clock (cost measured around
// Invoke), atomic message ids, tracked enqueue, replies applied directly to
// the sender's converter, and the worker's latency shard.
//
// Concurrency model (DESIGN.md §1): there is no global control-plane lock.
//  - Scheduling state is sharded into lock-free per-operator mailboxes plus
//    per-policy ready queues inside the Scheduler itself.
//  - The converter table, source channels, cost profiler, graph topology and
//    per-job runtime state all live in dense append-only id tables
//    (common/id_table.h), so the per-message path is lock-free while
//    AddQuery/RemoveQuery splice tenants in and out of the running system.
//  - Latency metrics (processed volume included) are per-worker shards
//    merged on read.
//  - Drain() waits on an atomic in-flight message counter: every Enqueue
//    increments it and each completed invocation decrements it after routing
//    its outputs, so the counter can only hit zero when the dataflow is
//    globally quiescent. RemoveQuery() waits the same way on a per-job
//    counter, so a tenant can be quiesced and retired under full load from
//    everyone else.
//  - Ingest is serialized per *source* (monotone progress per channel), not
//    globally, and is gated per job: once RemoveQuery flips a job's live
//    bit, Ingest returns false instead of enqueueing.
//  - SetWorkerCount() grows and shrinks the worker pool mid-run (elastic
//    workers); shrink signals the excess workers, joins them after their
//    current invocation, and lets the scheduler re-pin any statically
//    placed work.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/id_table.h"
#include "common/rng.h"
#include "core/context_converter.h"
#include "core/profiler.h"
#include "core/token_bucket.h"
#include "dataflow/graph.h"
#include "metrics/sharded_latency.h"
#include "sched/scheduler.h"

namespace cameo {

struct RuntimeConfig {
  int num_workers = 2;
  SchedulerKind scheduler = SchedulerKind::kCameo;
  SchedulerConfig sched;
  std::string policy = "LLF";
  bool use_query_semantics = true;
  /// Spin/sleep for each invocation's CostModel duration to emulate compute.
  bool emulate_cost = true;
  std::uint64_t seed = 1;
};

class ThreadRuntime {
 public:
  ThreadRuntime(RuntimeConfig config, DataflowGraph graph);
  ~ThreadRuntime();

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  void Start();
  /// Blocks until all enqueued work (including downstream messages it
  /// produces) has completed.
  void Drain();
  void Stop();

  // ---- query lifecycle (thread-safe; serialized among themselves) ----

  /// Splices a new query into the running dataflow: `build` is the shared
  /// `QueryBuilder` callback (dataflow/graph.h) -- it composes
  /// AddJob/AddStage/Connect on the graph and returns the new query's
  /// handles, which are echoed back. All runtime tables (converters,
  /// profiler seeds, source channels, latency accounting) are registered
  /// before the call returns, after which Ingest to the query's sources is
  /// live. Works before Start() too (the constructor uses the same path for
  /// the initial graph).
  JobHandles AddQuery(const QueryBuilder& build);

  /// Gracefully removes a query under live traffic from other tenants:
  /// blocks new Ingest for `job`, waits until every in-flight message of the
  /// job has fully executed (per-job quiesce on the in-flight counter), then
  /// retires the job's mailboxes so stale ready-queue entries can never
  /// dispatch and any later Ingest attempt is rejected. Every message
  /// accepted before the call is executed -- nothing is dropped.
  void RemoveQuery(JobId job);

  /// True until RemoveQuery(job) begins.
  bool QueryLive(JobId job) const;

  /// Elastic worker pool: grows by spawning workers, shrinks by signalling
  /// and joining the excess ones after their current invocation. May be
  /// called before Start() (just retargets the initial pool size).
  void SetWorkerCount(int workers);
  int worker_count() const;

  /// Nanoseconds since Start().
  SimTime Now() const;

  /// Ingests a synthetic batch at `source`. Logical time defaults to the
  /// current clock (ingestion-time domain); pass `p` for event-time jobs.
  /// Thread-safe: may be called from any number of external threads.
  /// Returns false (nothing enqueued) once the source's query was removed.
  bool Ingest(OperatorId source, std::int64_t tuples,
              std::optional<LogicalTime> p = std::nullopt);
  /// Ingests a columnar batch (its `progress` must be set). Thread-safe.
  bool IngestBatch(OperatorId source, EventBatch batch);

  DataflowGraph& graph() { return graph_; }
  ShardedLatencyRecorder& latency() { return latency_; }
  Scheduler& scheduler() { return *scheduler_; }
  CostProfiler& profiler() { return profiler_; }

  /// Thread-safe snapshot of the policy's statistics counters, readable
  /// mid-run concurrently with the workers (every stateful policy's
  /// Counters() locks internally; see core/policies.h). Values are exact at
  /// quiescence and monotone-approximate under load -- the same contract as
  /// scheduler().stats().
  std::vector<PolicyCounter> PolicyCountersSnapshot() const {
    return policy_->Counters();
  }

 private:
  struct alignas(64) SourceState {
    explicit SourceState(const JobSpec& spec) : tokens(spec) {}
    std::mutex mu;  // per-channel in-order guarantee; guards the fields below
    LogicalTime last_progress = 0;
    SourceTokens tokens;  // the job's ingestion share (§5.4)
  };
  /// Per-job in-flight accounting and the ingest gate. The guard protocol:
  /// Ingest increments `inflight` *before* reading `live`, and RemoveQuery
  /// flips `live` *before* waiting for zero, so either the producer observes
  /// the flip and backs out or the remover waits for that producer's
  /// message.
  struct alignas(64) JobState {
    std::atomic<std::int64_t> inflight{0};
    std::atomic<bool> live{true};
  };

  /// Hooks into the shared per-message step (core/message_step.h).
  struct StepHooks;

  void WorkerLoop(int index);
  ContextConverter& converter(OperatorId op);
  /// Registers all runtime tables for `job` (converters, profiler seeds,
  /// source states, latency, job state). Caller holds control_mu_.
  void RegisterJobTables(JobId job);
  void EnqueueTracked(Message m, WorkerId producer, JobState& js);
  void FinishOne(JobState& js);
  MessageId NextMessageId() {
    return MessageId{next_message_id_.fetch_add(1, std::memory_order_relaxed)};
  }

  RuntimeConfig config_;
  DataflowGraph graph_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::unique_ptr<Scheduler> scheduler_;
  // Dense id tables: lock-free lookups, grown by AddQuery.
  IdTable<OperatorId, ContextConverter> converters_;
  IdTable<OperatorId, SourceState> sources_;
  IdTable<JobId, JobState> job_states_;
  CostProfiler profiler_;
  ShardedLatencyRecorder latency_;

  std::atomic<bool> stop_{false};
  std::atomic<int> target_workers_{0};
  /// Messages enqueued but not yet fully processed (invocation + routing).
  std::atomic<std::int64_t> inflight_{0};
  std::atomic<std::int64_t> next_message_id_{0};

  // Serializes AddQuery/RemoveQuery/SetWorkerCount (control plane only;
  // never touched by the per-message path).
  mutable std::mutex control_mu_;

  // Sleep/wake plumbing only -- protects no data.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cameo
