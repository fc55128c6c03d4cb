// Scenario builders for the paper's evaluation (§6). Each benchmark binary
// configures one of these and prints the rows/series the corresponding
// figure reports. Integration tests reuse the same builders.
//
// Internally every scenario is expressed through the frontend API: tenants
// are fluent QueryDefs with IngestSpecs attached, submitted to a SimEngine
// (api/sim_engine.h). Each option struct below holds the workload shape plus
// an embedded `EngineOptions engine` that the scenario hands to its engine
// unchanged; only the token scenario, which pins scheduler and policy,
// keeps its own `workers` and `seed`.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/engine_options.h"
#include "sim/cluster.h"
#include "sim/driver.h"
#include "workload/churn.h"
#include "workload/tenants.h"
#include "workload/trace.h"

namespace cameo {

enum class ArrivalKind { kConstant, kPoisson, kPareto };

struct MultiTenantOptions {
  int ls_jobs = 4;  // Group 1, latency sensitive
  int ba_jobs = 8;  // Group 2, bulk analytics
  double ls_msgs_per_sec = 1.0;
  std::int64_t ls_tuples_per_msg = 1000;
  double ba_msgs_per_sec = 10.0;
  std::int64_t ba_tuples_per_msg = 1000;
  ArrivalKind ba_arrivals = ArrivalKind::kConstant;
  double pareto_alpha = 1.5;  // burstiness of Pareto BA traffic
  EngineOptions engine{.workers = 8};
  SimTime duration = Seconds(60);
  Duration event_time_delay = Millis(50);
  /// Per-job extra event-time delay step; > 0 interleaves jobs' window
  /// trigger times (Fig. 14 right).
  Duration interleave_step = 0;
  int sources_per_job = 8;
  int aggs_per_job = 4;
  /// Override for the LS jobs' latency constraint; 0 keeps the paper's
  /// 800 ms default.
  Duration ls_constraint = 0;
  /// Override for the BA jobs' latency constraint; 0 keeps the paper's
  /// 7200 s default.
  Duration ba_constraint = 0;
};

/// Builds and runs the §6.2 control-group workload; job names are
/// "LS<i>" and "BA<i>".
RunResult RunMultiTenant(const MultiTenantOptions& opt);

struct SingleTenantOptions {
  int ipq = 1;  // 1..4
  /// `engine.sim.enable_timeline` also returns the job's dispatch timeline.
  EngineOptions engine{.workers = 2};
  SimTime duration = Seconds(30);
  /// Oversubscription factor on the ingest rate (1.0 = spec default).
  double load_factor = 1.0;
};

struct SingleTenantResult {
  RunResult run;
  std::vector<DispatchRecord> timeline;
  SampleStats latency;
};

SingleTenantResult RunSingleTenant(const SingleTenantOptions& opt);

struct SkewScenarioOptions {
  /// Paper Fig. 10: Type 1 = 2x volume, mild skew; Type 2 = 200x skew.
  int jobs_type1 = 2;
  int jobs_type2 = 2;
  double type1_tuples_per_sec = 700000;  // per job, across sources
  double type2_tuples_per_sec = 350000;
  double type1_skew = 4;
  double type2_skew = 200;
  int sources_per_job = 8;
  /// Messages per source per second (finer batches keep the window-close
  /// floor below the constraint).
  int msgs_per_interval = 20;
  double burst_alpha = 1.5;  // heavy-tailed per-second volume
  EngineOptions engine;
  SimTime duration = Seconds(60);
  /// Tight target: bursts make most outputs miss it unless the scheduler
  /// prioritizes the critical messages (paper: success rates 0.2%-45%).
  Duration constraint = Millis(150);
};

/// Jobs are named "T1-<i>" and "T2-<i>".
RunResult RunSkewedScenario(const SkewScenarioOptions& opt);

struct TokenScenarioOptions {
  /// Target ingestion-rate shares; tokens per second per source (paper
  /// Fig. 6: 20% / 40% / 40%).
  std::vector<double> token_rates = {12, 24, 24};
  double msgs_per_sec = 60;  // offered load per source, above token rate
  /// Sized so the aggregate *tokened* work alone saturates the workers (the
  /// regime where token shares bind; paper: "the cluster is at capacity
  /// after Dataflow 3 arrives").
  std::int64_t tuples_per_msg = 10000;
  int sources_per_job = 2;
  int workers = 2;
  Duration stagger = Seconds(20);   // job i starts at i * stagger
  SimTime duration = Seconds(100);  // paper: 300 s stagger, 1500 s runs
  std::uint64_t seed = 1;
};

struct TokenScenarioResult {
  RunResult run;
  /// Per-job processed ingestion volume (tuples) in 1 s buckets.
  std::vector<std::vector<std::int64_t>> throughput;
};

/// §5.4 / Fig. 6: token-based proportional fair sharing.
TokenScenarioResult RunTokenScenario(const TokenScenarioOptions& opt);

struct ChurnScenarioOptions {
  /// Static background load: bulk-analytics jobs that keep the workers busy
  /// for the whole run (the contention the churned tenants must live with).
  /// Pareto arrivals by default: the per-second bursts are what separates
  /// deadline-aware ordering from FIFO in the tenants' tail.
  int background_ba_jobs = 2;
  double ba_msgs_per_sec = 35;
  std::int64_t ba_tuples_per_msg = 1000;
  ArrivalKind ba_arrivals = ArrivalKind::kPareto;
  double pareto_alpha = 1.2;
  int sources_per_job = 8;
  int aggs_per_job = 4;

  /// Churned tenants: latency-sensitive queries joining/leaving per a
  /// GenerateTenantChurn script (Poisson arrivals, Pareto lifetimes).
  TenantChurnSpec churn;
  int tenant_sources = 4;
  int tenant_aggs = 2;
  Duration tenant_constraint = Millis(800);
  double tenant_msgs_per_sec = 1.0;
  std::int64_t tenant_tuples_per_msg = 1000;

  EngineOptions engine;
  SimTime duration = Seconds(60);
};

struct ChurnScenarioResult {
  RunResult run;
  /// The script that was replayed (tenant jobs are named "T<i>").
  TenantChurnScript script;
  int tenants_added = 0;
  int tenants_departed = 0;  // within the horizon
  std::int64_t messages_purged = 0;
};

/// Replays a tenant-churn script on sim::Cluster over a static background
/// load; jobs are "BA<i>" (background) and "T<i>" (churned tenants).
ChurnScenarioResult RunChurnScenario(const ChurnScenarioOptions& opt);

/// Key distribution of a keyed scenario's ingestion (workload/keyed.h).
enum class KeyDistribution { kUniform, kZipf, kGrid };

struct KeyedScenarioOptions {
  KeyDistribution dist = KeyDistribution::kUniform;
  /// Key universe of kUniform / kZipf.
  std::int64_t num_keys = 100'000;
  double zipf_s = 1.0;  // kZipf exponent
  // kGrid (CheetahGIS-style): cell grid dimensions and walker count.
  int grid_width = 256;
  int grid_height = 256;
  int grid_entities = 20'000;

  int sources = 4;
  int counters = 4;
  /// Hot-key split factor of the KeyBy edge into the counters (two-phase
  /// aggregation; 1 = unmitigated).
  int splits = 1;
  int merge_replicas = 2;

  double msgs_per_sec = 20;
  std::int64_t tuples_per_msg = 2000;
  LogicalTime window = Seconds(1);  // tumbling
  /// Per-tuple cost of the counter stage (ns); the knob that turns key skew
  /// into shard overload.
  Duration counter_per_tuple = 500;

  /// `engine.workers` is per shard, so raising `engine.shards` is weak
  /// scaling -- the fig08 panel's axis. The chaos knobs are
  /// `engine.sim.shard_faults` and `shard_session`.
  EngineOptions engine;
  SimTime duration = Seconds(30);
  Duration constraint = Millis(800);
  /// When > 0, ingestion stops at this time instead of `duration`, leaving a
  /// grace window for retransmit chains to converge before the horizon --
  /// the chaos bench's delivery-conservation gate depends on it.
  SimTime ingest_end = 0;
};

struct KeyedScenarioResult {
  RunResult run;
  // Cross-shard traffic of the run (all zero at shards == 1).
  std::int64_t frames_sent = 0;
  std::int64_t frames_received = 0;
  std::int64_t wire_bytes = 0;
  /// Full merged transport view (fault + session counters).
  shard::TransportStats transport;
  /// Per-shard scheduler stats (size == engine.shards), for balance reporting.
  std::vector<SchedulerStats> shard_sched;
  // Aggregated over the counter stage's replicas (deterministic per seed).
  std::int64_t rows_seen = 0;       // rows observed by the counters
  double count_emitted = 0;         // sum of emitted per-key counts
  std::int64_t late_dropped = 0;
  std::int64_t keys_live = 0;  // (key, window) entries in open windows
  std::int64_t slate_rehashes = 0;
};

/// One keyed per-user-counter query (job "KEYED"): sources with sampled key
/// columns -> KeyBy(splits) -> KeyedCounterOp shards -> KeyBy per-key kSum
/// merge -> sink. The merge stage recombines split sub-key partials by
/// original key, so split and unsplit runs produce the same per-key totals.
KeyedScenarioResult RunKeyedScenario(const KeyedScenarioOptions& opt);

}  // namespace cameo
