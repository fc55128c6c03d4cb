// Fluent, backend-neutral query definitions: the repo's frontend API.
//
// A QueryDef declaratively describes one tenant query -- an ordered stage
// pipeline (source(s) -> windowed operators -> sink), the per-query QoS
// attributes the paper attaches to a *dataflow* rather than to a runtime
// (latency constraint L, stream-progress semantics, token entitlement), and
// optionally the ingestion workload that should drive it. It compiles
// (`Build`) into the exact AddJob/AddStage/Connect wiring both execution
// backends consume, so a scenario is one fluent expression instead of a page
// of graph surgery:
//
//   QueryDef def =
//       Query("LS0")
//           .Constraint(Millis(800))
//           .EventTime()
//           .Source(8)
//           .Shuffle().WindowAgg(4, WindowSpec::Tumbling(Seconds(1)), agg)
//           .Shuffle().WindowAgg(1, WindowSpec::Tumbling(Seconds(1)), fin,
//                                AggKind::kSum, false, "final")
//           .OneToOne().Sink()
//           .IngestConstant(1.0, 1000);
//
// The IR (a vector of StageDefs plus query attributes) is deliberately
// backend-neutral: an Engine (api/engine.h) maps it onto sim::Cluster or
// ThreadRuntime without the definition knowing which -- the same QueryDef
// replays in virtual time or against the wall clock. `Builder()` adapts a
// definition to the shared `QueryBuilder` callback, so scripted churn
// (sim::Cluster::ScheduleQuery) and hot-add (ThreadRuntime::AddQuery)
// consume definitions too.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "ops/stateless.h"
#include "ops/window_agg.h"
#include "state/keyed_counter.h"
#include "workload/generators.h"
#include "workload/keyed.h"

namespace cameo {

/// Backend-neutral ingestion description: what traffic a query's source
/// stage(s) should receive. SimEngine lowers it to ArrivalProcesses pumped
/// in virtual time; ThreadEngine lowers it to external producer threads
/// replaying the same arrival sequence against the wall clock.
struct IngestSpec {
  enum class Kind {
    kConstant,     // fixed rate / fixed batch size (optionally aligned)
    kPoisson,      // exponential inter-arrival gaps
    kParetoBurst,  // heavy-tailed per-interval volume (Fig. 9)
    kCustom,       // caller-provided ArrivalProcessFactory
  };

  Kind kind = Kind::kConstant;
  double msgs_per_sec = 1.0;
  std::int64_t tuples_per_msg = 1000;
  SimTime start = 0;
  /// End of the arrival sequence; kTimeMax = bounded only by the run.
  SimTime end = kTimeMax;
  /// Aligned batching clients (kConstant only): the k-th message carries the
  /// events of interval ((k-1)*gap, k*gap] and arrives `phase` + a small
  /// per-replica offset after the boundary.
  bool aligned = true;
  Duration phase = 0;
  double pareto_alpha = 1.5;  // kParetoBurst tail exponent
  /// Event-time jobs: an event's logical time trails its arrival by this
  /// much when the generator does not stamp explicit progress.
  Duration event_time_delay = 0;
  /// kCustom: used verbatim (all shape fields above are ignored).
  ArrivalProcessFactory custom;
  /// Optional keyed ingestion: when set, each source message carries real
  /// keyed columns drawn from this sampler (workload/keyed.h) instead of a
  /// synthetic tuple count. Orthogonal to the arrival shape above.
  KeySamplerFactory key_sampler;
};

/// Lowers an IngestSpec to the per-replica arrival-process factory the
/// execution layers consume. For kConstant aligned clients the per-replica
/// phase is `spec.phase + 2 ms + replica * 9 ms` (spreads replicas of one
/// batching client across the interval).
ArrivalProcessFactory MakeArrivalFactory(const IngestSpec& spec);

/// One stage of a query pipeline (the QueryDef IR).
struct StageDef {
  enum class Kind {
    kSource,       // external input (left side for joins)
    kSourceRight,  // right input of a join
    kMap,          // stateless per-tuple transform
    kFilter,       // stateless predicate
    kWindowAgg,    // windowed aggregation
    kKeyedCounter, // per-key windowed row counter
    kWindowedJoin, // two-input windowed join
    kSink,         // terminal
  };

  Kind kind = Kind::kSource;
  /// Stage-name suffix; the operator/stage name is "<query>/<name>".
  std::string name;
  int parallelism = 1;
  CostModel cost;
  /// How the upstream stage(s) partition into this one (ignored on sources).
  Partition input = Partition::kShard;
  /// Hot-key split factor of the input edge (kKeyHash only; see
  /// StageInfo::split).
  int input_split = 1;
  WindowSpec window;            // kWindowAgg / kWindowedJoin (size only)
  AggKind agg = AggKind::kSum;  // kWindowAgg
  bool per_key = false;         // kWindowAgg
  AggParams agg_params;         // kWindowAgg (TopK / Percentile shapes)
  KeyedCounterOptions counter;  // kKeyedCounter
  MapOp::Fn map_fn;             // kMap
  FilterOp::Predicate filter_fn;         // kFilter
  double filter_selectivity = 1.0;       // kFilter
};

class QueryDef {
 public:
  explicit QueryDef(std::string name);

  // ---- per-query attributes (paper: properties of the dataflow) ----

  /// The paper's L: end-to-end latency constraint of the query.
  QueryDef& Constraint(Duration latency_constraint);
  /// Stream-progress semantics (paper §4.3).
  QueryDef& EventTime();
  QueryDef& IngestionTime();
  QueryDef& Domain(TimeDomain domain);
  /// Target ingestion share for token fair sharing (§5.4), tokens/s per
  /// source replica; <= 0 disables tokens.
  QueryDef& TokenRate(double per_source_per_sec);

  // ---- edge connectives: partition of the NEXT stage's input ----

  QueryDef& Shuffle();     // kShard (stable sender->receiver channels)
  QueryDef& KeyBy();       // kKeyHash
  /// kKeyHash with two-phase hot-key splitting: keys a batch shows to be hot
  /// spread over up to `splits` sub-routes; follow the keyed stage with a
  /// per-key merge stage (e.g. per-key kSum WindowAgg) to recombine.
  QueryDef& KeyBy(int splits);
  QueryDef& RoundRobin();  // kRoundRobin
  QueryDef& Broadcast();   // kBroadcast
  QueryDef& OneToOne();    // kOneToOne

  // ---- stages, in pipeline order ----

  QueryDef& Source(int replicas, CostModel cost = {Micros(100), 0, 0.05},
                   std::string stage = "src");
  /// Second input of a join query (legal only before the join stage).
  QueryDef& RightSource(int replicas, CostModel cost = {Micros(100), 0, 0.05},
                        std::string stage = "srcR");
  QueryDef& Map(int replicas, CostModel cost, MapOp::Fn fn,
                std::string stage = "map");
  QueryDef& Filter(int replicas, CostModel cost, FilterOp::Predicate pred,
                   double selectivity, std::string stage = "filter");
  QueryDef& WindowAgg(int replicas, WindowSpec window, CostModel cost,
                      AggKind agg = AggKind::kSum, bool per_key = false,
                      std::string stage = "agg");
  /// Session-window aggregation: tuples within `gap` of each other coalesce
  /// into one data-driven window (sugar for WindowSpec::Session(gap)).
  QueryDef& SessionAgg(int replicas, LogicalTime gap, CostModel cost,
                       AggKind agg = AggKind::kSum, bool per_key = false,
                       std::string stage = "session");
  /// Top `k` keys by per-key sum over each window.
  QueryDef& TopK(int replicas, WindowSpec window, CostModel cost, int k,
                 std::string stage = "topk");
  /// Percentile-of-values sketch (LogHistogram); `q` in [0, 100].
  QueryDef& Percentile(int replicas, WindowSpec window, CostModel cost,
                       double q, std::string stage = "pct");
  /// Open/high/low/close of each window (four tuples keyed 0..3).
  QueryDef& Ohlc(int replicas, WindowSpec window, CostModel cost,
                 std::string stage = "ohlc");
  /// Per-key row counter (state/keyed_counter.h): a per-key kCount
  /// WindowAgg that also reports progress for window ends at which it
  /// closed nothing. Usually fed via KeyBy().
  QueryDef& KeyedCounter(int replicas, WindowSpec window, CostModel cost,
                         KeyedCounterOptions opts = {},
                         std::string stage = "counter");
  QueryDef& WindowedJoin(int replicas, LogicalTime window, CostModel cost,
                         std::string stage = "join");
  QueryDef& Sink(CostModel cost = {Micros(50), 0, 0.0},
                 std::string stage = "sink");

  // ---- ingestion ----

  QueryDef& Ingest(IngestSpec spec);
  /// Aligned constant-rate batching clients (the paper's workload model).
  QueryDef& IngestConstant(double msgs_per_sec, std::int64_t tuples_per_msg,
                           Duration event_time_delay = 0);
  /// Attaches a key sampler (workload/keyed.h) to the query's ingestion
  /// (must follow Ingest*): source messages carry real keyed columns drawn
  /// from the sampler instead of synthetic tuple counts.
  QueryDef& Keys(KeySamplerFactory sampler);

  // ---- compilation ----

  /// Compiles the definition into `g`: AddJob with the query attributes
  /// (output window/slide derived from the last windowed stage), AddStage
  /// per StageDef, Connect along the pipeline (all leading sources feed the
  /// first downstream stage), join left-input wiring, and channel-count
  /// finalization. Returns the standard handles.
  JobHandles Build(DataflowGraph& g) const;

  /// Adapts this definition to the shared QueryBuilder callback (captures a
  /// copy, so the definition may die before the builder runs -- scripted
  /// churn compiles at the tenant's virtual arrival time).
  QueryBuilder Builder() const;

  // ---- introspection (engines, tests) ----

  const std::string& name() const { return name_; }
  Duration constraint() const { return latency_constraint_; }
  TimeDomain domain() const { return domain_; }
  double token_rate() const { return token_rate_per_sec_; }
  const std::vector<StageDef>& stages() const { return stages_; }
  bool has_ingest() const { return ingest_.has_value(); }
  const IngestSpec& ingest() const;

 private:
  QueryDef& Append(StageDef stage);

  std::string name_;
  Duration latency_constraint_ = Millis(800);
  TimeDomain domain_ = TimeDomain::kEventTime;
  double token_rate_per_sec_ = 0;
  Partition next_input_ = Partition::kShard;
  int next_split_ = 1;
  std::vector<StageDef> stages_;
  std::optional<IngestSpec> ingest_;
};

/// Entry point of the fluent API: `Query("LS0").Source(...)...`.
QueryDef Query(std::string name);

/// Wires SetChannels on every windowed operator of `job` from the topology:
/// the exact upstream operator ids that can deliver to each replica, so
/// progress from anything else (including the invalid-sender sentinel) earns
/// no watermark credit. QueryDef::Build and the workload builders call this;
/// call it again after manual graph surgery.
void FinalizeChannels(DataflowGraph& g, JobId job);

}  // namespace cameo
