// Cluster-wide dataflow topology: multiple jobs, each a DAG of stages, each
// stage parallelized into operators (paper §4.1). The graph owns the
// operators and answers routing queries: given an emitting operator and an
// output port, which operator(s) receive the batch and with what partitioning.
//
// Dynamic multi-tenancy: the topology is not frozen before execution.
// Jobs, stages and operators live in three dense append-only id tables
// (common/id_table.h), so workers route lock-free while a control thread
// splices a new query in (AddQuery) or marks one retired (RemoveQuery).
// Entries never move and live as long as the graph, so references handed
// out earlier never dangle. Ids are stable: removal never re-numbers
// anything, it only flips the job's `live` bit (the runtime layers own the
// actual quiesce/retire of mailboxes and ingestion).
//
// Publication invariant: a table's count is published after its entry is
// written, so every id below job_count()/operator_count() resolves. AddStage
// and Connect then edit only the entries of the job being built (its stage
// list and its stages' edges), and no worker reads those entries until
// AddQuery returns -- the query's sources receive no traffic before then.
// Readers of other jobs never see a half-built entry.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/id_table.h"
#include "common/ids.h"
#include "common/time.h"
#include "dataflow/operator.h"

namespace cameo {

/// How batches emitted by one stage are distributed to the next.
enum class Partition {
  kKeyHash,     // split columnar batch by KeyMix(key) % parallelism; every
                // replica receives at least a progress-only batch so keyed
                // shards' watermarks advance even when they own no rows
  kRoundRobin,  // whole batch to replicas in rotation
  kBroadcast,   // whole batch replicated to every replica
  kOneToOne,    // replica i -> replica i (parallelisms must match)
  kShard,       // sender replica i -> receiver replica i % parallelism;
                // keeps (sender, receiver) channels stable so downstream
                // watermarks advance at the senders' message rate
};

/// Stream progress domain of a job's logical time (paper §4.3).
enum class TimeDomain {
  kEventTime,      // logical time from the data; PROGRESSMAP is learned
  kIngestionTime,  // logical time assigned on arrival; PROGRESSMAP = identity
};

struct JobSpec {
  std::string name;
  /// Paper: L, the dataflow latency constraint.
  Duration latency_constraint = 0;
  TimeDomain time_domain = TimeDomain::kIngestionTime;
  /// Window size and slide (logical ticks) of the job's final windowed
  /// stage; used by metrics to attribute outputs to the events that produced
  /// them. Slide 0 marks a per-message (non-windowed) output.
  LogicalTime output_window = 0;
  LogicalTime output_slide = 0;
  /// Target ingestion share for the token fair-sharing policy (§5.4);
  /// <= 0 disables tokens for the job.
  double token_rate_per_sec = 0;
};

struct StageInfo {
  StageId id;
  JobId job;
  std::string name;
  int parallelism = 1;
  std::vector<OperatorId> operators;
  /// Outgoing edges in port order.
  std::vector<StageId> downstream;
  std::vector<Partition> partition;
  /// Per-edge hot-key split factor (kKeyHash only; 1 = no splitting). Keys a
  /// batch shows to be hot are salted across this many sub-keys, spreading
  /// one key's traffic over up to `split` replicas (two-phase aggregation:
  /// a downstream merge stage recombines the partials by original key).
  std::vector<int> split;
  std::vector<StageId> upstream;
};

/// Handles to one query's subgraph, returned by every query builder. Only
/// `job` must be valid; the stage handles are conveniences for wiring
/// ingestion and reading sinks.
struct JobHandles {
  JobId job;
  StageId source;
  StageId sink;
  std::vector<StageId> stages;  // in pipeline order
  /// Second source stage for join jobs; invalid otherwise.
  StageId source_right;
};

class DataflowGraph;

/// The one query-builder callback signature shared by every layer that
/// splices queries into a graph (DataflowGraph::AddQuery,
/// ThreadRuntime::AddQuery, sim::Cluster::ScheduleQuery, QueryDef::Builder):
/// composes AddJob/AddStage/Connect against the graph and returns the new
/// query's handles.
using QueryBuilder = std::function<JobHandles(DataflowGraph&)>;

class DataflowGraph {
 public:
  DataflowGraph();
  DataflowGraph(DataflowGraph&&) = default;
  DataflowGraph& operator=(DataflowGraph&&) = default;

  JobId AddJob(JobSpec spec);

  /// Adds a stage of `parallelism` operators built by `factory`.
  StageId AddStage(JobId job, const std::string& name, int parallelism,
                   const OperatorFactory& factory);

  /// Connects `from` -> `to`; returns the output port index on `from`.
  /// `split` is the kKeyHash hot-key split factor (see StageInfo::split).
  int Connect(StageId from, StageId to, Partition partition, int split = 1);

  /// Splices a whole query subgraph into the (possibly running) topology:
  /// `build` composes AddJob/AddStage/Connect and returns the new query's
  /// handles, whose job id is validated and echoed back. Purely a semantic
  /// wrapper -- the query only receives traffic once the owning runtime
  /// starts ingesting into its sources.
  JobHandles AddQuery(const QueryBuilder& build);

  /// Marks `job` retired and returns all of its operator ids (for mailbox
  /// retirement). Ids and references stay valid; Route still resolves for
  /// in-flight stragglers, and `query_live` flips to false.
  std::vector<OperatorId> RemoveQuery(JobId job);

  /// False once RemoveQuery(job) has run.
  bool query_live(JobId job) const;
  /// Number of jobs not yet removed.
  std::size_t live_job_count() const;

  Operator& Get(OperatorId id);
  const Operator& Get(OperatorId id) const;
  bool Contains(OperatorId id) const;

  const JobSpec& job(JobId id) const;
  const StageInfo& stage(StageId id) const;

  std::size_t job_count() const;
  std::size_t operator_count() const;
  /// Every job ever added, in id order (including retired ones, so metrics
  /// can keep reporting a removed tenant's history).
  std::vector<JobId> job_ids() const;
  const std::vector<StageId>& stages_of(JobId job) const;

  /// All operators of a job, across stages.
  std::vector<OperatorId> OperatorsOf(JobId job) const;

  /// One routed delivery: `batch` goes to `target`.
  struct Delivery {
    OperatorId target;
    EventBatch batch;
  };

  /// Routes a batch emitted by `sender` on `port` to downstream operators,
  /// appending the deliveries to `out` (a caller-owned vector, so a worker
  /// reuses its capacity route to route). Mutates round-robin state; a
  /// kKeyHash edge splits columnar batches by mixed key hash (delivering
  /// progress-only batches to replicas that own none of the rows) and
  /// assigns keyless batches to key 0's owner, with progress broadcast to
  /// the rest.
  void Route(OperatorId sender, int port, EventBatch batch,
             std::vector<Delivery>& out);
  /// As above, into a fresh vector.
  std::vector<Delivery> Route(OperatorId sender, int port, EventBatch batch);

  /// Sink stages (no downstream edges) of a job.
  std::vector<StageId> SinkStages(JobId job) const;

 private:
  struct JobEntry {
    JobSpec spec;
    std::vector<StageId> stages;
    std::atomic<bool> live{true};
  };
  /// Behind a unique_ptr so the graph stays movable despite the tables'
  /// atomics and mutexes.
  struct State {
    std::mutex mutate_mu;  // serializes AddJob/AddStage/Connect
    IdTable<JobId, JobEntry> jobs;
    IdTable<StageId, StageInfo> stages;
    IdTable<OperatorId, Operator> operators;
    // Round-robin routing cursors, the only state Route() mutates; guarded
    // so concurrent workers can route.
    std::mutex rr_mu;
    std::unordered_map<std::int64_t, std::size_t> rr_state;  // edge -> next
  };

  const JobEntry& job_entry(JobId id) const;
  std::size_t NextReplica(std::int64_t edge, std::size_t replicas);

  std::unique_ptr<State> s_;
};

}  // namespace cameo
