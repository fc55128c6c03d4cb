// The simulated cluster: N workers executing a multi-tenant DataflowGraph
// under a pluggable Scheduler, in virtual time.
//
// This substitutes for the paper's 32-node Azure deployment (see DESIGN.md):
// per-message execution costs come from the operators' cost models, messages
// between operators incur a configurable network delay, and switching a
// worker between operators incurs a context-switch cost. Everything above
// the clock — schedulers, contexts, policies, operators, metrics, and the
// per-message protocol itself (core/message_step.h) — is the same code the
// wall-clock runtime uses.
//
// Per message lifecycle (paper Fig. 5(a)):
//   ingestion -> SourceMessage (BuildCxtAtSource) -> Enqueue -> Dequeue
//   (worker free) -> busy for the sampled cost -> at completion,
//   RunMessageStep: Invoke -> profiler + policy -> per delivery:
//        BuildCxtAtOperator -> network delay (or wire + transport) -> Enqueue
//   -> ack: PrepareReply -> network delay (or wire) -> ProcessCtxFromReply
// The sim's hooks (StepHooks in cluster.cpp) supply the virtual clock, a
// plain message-id counter, and the event-queue and transport hops.
//
// Dynamic multi-tenancy: queries can join and leave the simulated cluster in
// virtual time. `ScheduleQuery` splices a tenant's dataflow in at its arrival
// time (converters, profiler seeds and ingestion are registered on the spot)
// and retires it at its departure time: the source stops pumping, the
// scheduler purges the tenant's mailboxes (counted, never silent) and parks
// them at kRetired.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/engine_options.h"
#include "common/id_table.h"
#include "common/rng.h"
#include "core/context_converter.h"
#include "core/message_step.h"
#include "core/profiler.h"
#include "core/token_bucket.h"
#include "dataflow/graph.h"
#include "metrics/latency_recorder.h"
#include "metrics/timeline.h"
#include "metrics/utilization.h"
#include "sched/scheduler.h"
#include "shard/shard_runtime.h"
#include "sim/event_queue.h"
#include "workload/generators.h"
#include "workload/keyed.h"
#include "workload/tenants.h"

namespace cameo {

class Cluster {
 public:
  /// Reads the top-level options and `options.sim`; `workers` is per shard.
  /// `wallclock` is ignored.
  Cluster(EngineOptions options, DataflowGraph graph);

  /// Attaches one ArrivalProcess per replica of `source_stage`. For
  /// event-time jobs, each event's logical time is its arrival time minus
  /// `event_time_delay` (the paper's "events affect results within a
  /// constant delay" assumption). When `key_sampler` is set, each source
  /// message's batch is materialized as keyed columns drawn from the sampler
  /// (unit values, all rows at the batch's logical time) instead of a
  /// synthetic tuple count; the sampler draws from a per-source Rng seeded
  /// off the config seed, so keyed ingestion never perturbs the cluster's
  /// main random stream.
  void AddIngestion(StageId source_stage, const ArrivalProcessFactory& factory,
                    Duration event_time_delay = 0,
                    const KeySamplerFactory& key_sampler = nullptr);

  // ---- scripted query churn (virtual time) ----

  // Query builders use the shared `cameo::QueryBuilder` signature
  // (dataflow/graph.h): compose the subgraph, return its JobHandles.

  /// Schedules a tenant query to join at `at` and -- when `until > at` and
  /// inside the run horizon -- to leave at `until`. On arrival the builder
  /// runs against the live graph, runtime tables are registered, and
  /// `ingestion` starts pumping the new source stage. Returns a ticket that
  /// resolves to the JobId once the arrival has executed.
  int ScheduleQuery(SimTime at, SimTime until, QueryBuilder builder,
                    ArrivalProcessFactory ingestion,
                    Duration event_time_delay = 0);

  /// JobId created for `ticket`, once its arrival time has passed.
  std::optional<JobId> ScheduledJob(int ticket) const;

  /// Immediately retires `job`: ingestion stops, mailbox backlog is purged
  /// with accounting, stale ready entries can never dispatch again. Also the
  /// tail half of a ScheduleQuery departure.
  void RemoveQueryNow(JobId job);

  /// Messages discarded by query retirement (accounted, never silent).
  /// Derived from scheduler stats so purges deferred to a worker's release
  /// path (mailbox active mid-invocation at departure) are included.
  std::int64_t messages_purged() const {
    return static_cast<std::int64_t>(runtime_->MergedSchedStats().purged);
  }

  /// Runs the simulation until virtual time `until`. May be called again
  /// with a later horizon to continue the run: sources whose arrival chain
  /// is already pumping are not pumped a second time.
  void Run(SimTime until);

  SimTime now() const { return events_.now(); }

  DataflowGraph& graph() { return graph_; }
  LatencyRecorder& latency() { return latency_; }
  UtilizationTracker& utilization() { return utilization_; }
  Timeline& timeline() { return timeline_; }
  /// Shard 0's scheduler (the only one at num_shards == 1).
  /// Multi-shard readers want the merged views below.
  Scheduler& scheduler() { return runtime_->scheduler(0); }
  CostProfiler& profiler() { return profiler_; }
  ContextConverter& converter(OperatorId op);

  /// Scheduler stats summed across every shard's stat shards (exact at
  /// quiescence, same contract as the single-scheduler stats()).
  SchedulerStats sched_stats() const { return runtime_->MergedSchedStats(); }
  /// Thread-safe mid-run snapshot of policy counters merged across shards
  /// by name (each policy locks internally -- no run-end barrier needed).
  std::vector<PolicyCounter> PolicyCountersSnapshot() const {
    return runtime_->PolicyCountersSnapshot();
  }
  shard::ShardRuntime& shard_runtime() { return *runtime_; }
  const shard::ShardRuntime& shard_runtime() const { return *runtime_; }

  std::uint64_t messages_delivered() const { return messages_delivered_; }
  /// Simulator events run so far (the event loop's own cost unit).
  std::uint64_t events_executed() const { return events_.executed(); }
  /// Events scheduled so far whose delay took the event heap rather than a
  /// fixed-delay lane (EventQueue::kLaneDelays).
  std::uint64_t heap_events() const { return events_.heap_pushes(); }

 private:
  struct WorkerState {
    bool busy = false;
    bool kicked = false;  // in a pending wake-up sweep (KickIdleWorkers)
    OperatorId last_op;
    /// The activation in flight (at most one, guarded by `busy`): the
    /// drained messages and their sampled costs, held from dispatch to
    /// completion. Their capacity is reused activation to activation.
    std::vector<Message> msgs;
    std::vector<Duration> execs;
  };
  struct SourceState {
    OperatorId op;
    std::unique_ptr<ArrivalProcess> process;
    Duration event_time_delay = 0;
    LogicalTime last_logical = 0;  // logical times start at 1
    /// Keyed ingestion (optional): materializes batch columns from its own
    /// deterministic stream so attaching a sampler leaves `rng_` untouched.
    std::unique_ptr<KeySampler> sampler;
    Rng key_rng{0};
    /// The job's ingestion share (§5.4).
    SourceTokens tokens;
  };
  struct ScheduledQuery {
    SimTime at = 0;
    SimTime until = 0;
    QueryBuilder build;
    ArrivalProcessFactory ingestion;
    Duration event_time_delay = 0;
    std::optional<JobId> job;  // set once the arrival executes
  };
  /// Hooks into the shared per-message step (core/message_step.h).
  struct StepHooks;

  /// Registers a job's converters, latency accounting and (optionally)
  /// static cost seeds: at construction and at a scripted arrival.
  void RegisterJob(JobId job);
  void PumpSource(std::size_t idx);
  void Deliver(Message m, WorkerId producer);
  void KickIdleWorkers(int shard);
  /// Pops one due frame addressed to `shard` and either delivers the
  /// message locally or applies the reply ack; kNone on a dry poll.
  shard::ReceiveKind HandleFrame(int shard);
  /// Receive event for one due transport frame addressed to `shard`. In
  /// chaos mode this drains *all* due frames and tolerates a dry poll
  /// (faults decouple send events from delivery).
  void ReceiveShardFrame(int shard);
  /// Chaos-mode drain loop shared by receive events and the session pump.
  void DrainShardFrames(int shard);
  /// Recurring per-shard chaos event: fires due session timers (retransmits,
  /// standalone acks), schedules receive polls for what they put on the
  /// wire, drains the shard's own inbox, and re-arms itself until the run
  /// horizon.
  void SessionPump(int shard);
  /// Claims an operator via the batched dispatch contract into the worker's
  /// activation and schedules one busy period covering the whole batch.
  void TryDispatch(WorkerId w);
  /// The per-message half of a completed activation: the shared message
  /// step (invoke, route outputs, ack upstream, record metrics, recycle).
  void CompleteMessage(WorkerId w, Message m, SimTime dispatch_time,
                       Duration cost);
  /// Completion event of the worker's activation: runs every message's step
  /// in dispatch order, releases the operator claim and redispatches.
  void CompleteActivation(WorkerId w, SimTime dispatch_time);
  MessageId NextMessageId() { return MessageId{next_message_id_++}; }

  EngineOptions options_;
  DataflowGraph graph_;
  EventQueue events_;
  Rng rng_;
  /// Placement, per-shard scheduler+policy instances, transport, wire codec.
  /// Workers are addressed globally (shard * workers + local); the
  /// runtime maps them onto each shard's scheduler.
  std::unique_ptr<shard::ShardRuntime> runtime_;
  IdTable<OperatorId, ContextConverter> converters_;
  CostProfiler profiler_;
  LatencyRecorder latency_;
  UtilizationTracker utilization_;
  Timeline timeline_;
  std::vector<WorkerState> workers_;
  std::vector<SourceState> sources_;
  /// Sources below this index already have their arrival chain scheduled
  /// (each PumpSource self-schedules its successor); Run only pumps the new
  /// tail, so continuing a run never double-pumps a source.
  std::size_t pumped_sources_ = 0;
  std::vector<std::unique_ptr<ScheduledQuery>> scheduled_;
  std::int64_t next_message_id_ = 0;
  std::uint64_t messages_delivered_ = 0;
  /// True when the session layer is live (chaos or explicit session config):
  /// receive events become tolerant drain-alls and the session pump runs.
  bool chaos_mode_ = false;
  SimTime pump_until_ = 0;
  std::vector<bool> pump_active_;
  /// SessionPump scratch for (peer, deliver_at) pairs (capacity reuse).
  std::vector<std::pair<int, SimTime>> pump_deliveries_;
  /// Outputs of the invocation in progress and their routed deliveries
  /// (message-step scratch).
  std::vector<EmittedBatch> emitted_;
  std::vector<DataflowGraph::Delivery> routed_;
};

}  // namespace cameo
