// The traced run: a benchmark-owned, single-threaded replay of the
// per-message path that ThreadRuntime::WorkerLoop and sim::Cluster execute,
// calling each layer's public entry points in the same order and recording a
// span around every call. Spans are leaves (no span encloses another), so a
// layer's self time is the sum of its spans.
//
// Per message: BuildCxtAtSource (ingest) -> Scheduler::Enqueue ->
// DequeueBatch -> Operator::Invoke -> profiler + policy feedback ->
// DataflowGraph::Route -> BuildCxtAtOperator -> Enqueue (or, across shards:
// EncodeMessage -> SessionLayer::Send ... Receive -> DecodeMessage ->
// Enqueue) -> PrepareReply -> ProcessCtxFromReply (or the same wire path) ->
// OnComplete.
#pragma once

#include <array>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/context_converter.h"
#include "core/profiler.h"
#include "sched/scheduler.h"
#include "shard/fault_transport.h"
#include "shard/inproc_transport.h"
#include "shard/placement.h"
#include "shard/session.h"

namespace perfbench {

class TraceLoop {
 public:
  enum Layer {
    kConvert,  // core: context conversion (all four Algorithm 1 calls)
    kPolicy,   // core: profiler record/estimate + policy OnInvoked
    kEnqueue,
    kDequeue,
    kComplete,
    kRoute,
    kOpSource,
    kOpWindowAgg,
    kOpKeyedCounter,
    kOpMerge,
    kOpSink,
    kEncode,
    kDecode,
    kSession,  // session layer, including the transport beneath it
    kLayers,
  };
  struct Span {
    std::uint64_t ticks = 0;
    std::int64_t calls = 0;
    std::int64_t rows = 0;  // operator layers: input rows
  };

  /// With `shards` > 1, operators are placed like ShardRuntime places them
  /// and cross-shard hops go through the wire codec and a session layer over
  /// a fault-injecting in-process transport carrying `faults`. With `spans`
  /// off the loop does identical work without reading the clock, which
  /// measures the tracing overhead.
  TraceLoop(cameo::DataflowGraph graph, int shards,
            const cameo::shard::FaultPlan& faults, std::uint64_t seed,
            bool spans);
  ~TraceLoop();

  TraceLoop(const TraceLoop&) = delete;
  TraceLoop& operator=(const TraceLoop&) = delete;

  /// Mirrors ThreadRuntime::IngestBatch.
  void Ingest(OperatorId source, cameo::EventBatch batch);
  /// Dispatches until every scheduler is empty and every frame delivered.
  void Drain();
  /// Zeroes spans and counters (after a warm-up replay).
  void Reset();

  /// Nanoseconds of self time in `layer` so far.
  double Ns(Layer layer) const;
  const Span& span(Layer layer) const { return spans_[layer]; }
  double LayerSumNs() const;
  std::int64_t messages() const { return messages_; }
  std::int64_t claims() const { return claims_; }
  std::int64_t frames() const { return frames_; }

 private:
  struct ShardState {
    std::unique_ptr<cameo::SchedulingPolicy> policy;
    std::unique_ptr<cameo::Scheduler> sched;
  };

  SimTime Now() const { return WallNs() - start_ns_; }
  int ShardOf(OperatorId op) const { return placement_.ShardOf(op); }
  cameo::ContextConverter& Conv(OperatorId op) { return *conv_.at(op); }
  void Enqueue(cameo::Message m, cameo::WorkerId producer);
  bool DispatchOne(int shard);
  void Route(const cameo::Message& m, const cameo::Operator& op, int shard);
  void Reply(const cameo::Message& m, const cameo::Operator& op,
             SimTime exec_start, int shard);
  void Ship(int from, int to, cameo::shard::WireFrame frame);
  /// Advances the virtual network clock, fires session timers and delivers
  /// every due frame; false once nothing is in flight.
  bool Pump();

  template <typename Fn>
  decltype(auto) Timed(Layer layer, Fn&& fn);

  cameo::DataflowGraph g_;
  int num_shards_;
  bool on_;
  cameo::shard::ShardPlacement placement_;
  std::vector<ShardState> shards_;
  std::unique_ptr<cameo::shard::InprocTransport> link_;
  std::unique_ptr<cameo::shard::FaultInjectingTransport> faulty_;
  std::unique_ptr<cameo::shard::SessionLayer> session_;
  std::unordered_map<OperatorId, std::unique_ptr<cameo::ContextConverter>> conv_;
  std::unordered_map<OperatorId, LogicalTime> last_progress_;
  std::unordered_map<OperatorId, Layer> op_layer_;
  cameo::CostProfiler profiler_;
  cameo::Rng rng_;
  std::vector<std::tuple<int, cameo::EventBatch, SimTime>> outs_;
  std::vector<cameo::Message> batch_;
  std::array<Span, kLayers> spans_{};
  std::int64_t next_id_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t claims_ = 0;
  std::int64_t frames_ = 0;
  std::int64_t outstanding_ = 0;  // app frames sent but not yet received
  SimTime vt_ = 0;                // virtual clock of the shard network
  std::int64_t start_ns_;
  std::uint64_t start_ticks_;
};

/// Per-layer counts taken from the real (untraced) run of a workload.
struct LayerCounts {
  double e2e_ns_per_msg = 0;  // untraced cost per message the traced loop must explain
  std::vector<double> ls_wait_ns;    // LS enqueue -> dispatch (wait probes)
  std::vector<double> ba_invoke_ns;  // BA counter/merge invocations (invoke probes)
  std::vector<double> gen_lag_ns;    // open-loop generator lag
  double ingest_ns_per_call = 0;
  cameo::SchedulerStats sched;
  std::int64_t keys_live = 0;
  std::uint64_t rehashes = 0;
  cameo::shard::WireStats wire;
  cameo::shard::TransportStats transport;
};

/// Emits every per-layer metric: span self times from `traced`, tracing
/// overhead from the traced and untraced loop wall times, counts from `c`.
/// Layers a workload bypasses report 0.
void ReportLayers(const TraceLoop& traced, double traced_wall_ns,
                  double untraced_wall_ns, const LayerCounts& c,
                  Report& report);

/// Replays the entries of `in` with due offset in [0, slice) through a
/// traced and an untraced TraceLoop, each on a fresh graph of `in.specs`
/// after a warm-up, in the closed-loop rounds of RunRounds; then reports
/// every per-layer metric.
void TraceReplay(const Inputs& in, Duration slice, int shards,
                 const cameo::shard::FaultPlan& faults, std::uint64_t seed,
                 const LayerCounts& c, Report& report);

/// Sums the probe samples of `tenants` into `c` (LS waits, BA invocations)
/// and the KeyedCounterOp books (live keys, rehashes).
void CollectProbes(const std::vector<Tenant>& tenants, LayerCounts& c);

}  // namespace perfbench
