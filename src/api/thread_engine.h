// Engine facade over ThreadRuntime (wall clock).
//
// Submissions before Start() stage into the initial graph; later ones
// hot-add through ThreadRuntime::AddQuery against live traffic. A query's
// IngestSpec is lowered to *external producer helpers*: one producer thread
// per source replica replays the spec's arrival sequence against the wall
// clock (optionally compressed by EngineOptions::wallclock.time_scale) and
// feeds ThreadRuntime::Ingest, stopping on the first rejected ingest after
// the query is removed. RunFor(d) drives all attached producers through the
// next `d` of the specs' virtual timeline, then drains.
//
// Queries fed by real columnar data skip the spec and push batches directly
// (`IngestBatch`), exactly like hand-driven ThreadRuntime code.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "api/engine.h"
#include "runtime/thread_runtime.h"

namespace cameo {

class ThreadEngine final : public Engine {
 public:
  explicit ThreadEngine(EngineOptions options);
  ~ThreadEngine() override;

  QueryHandle Submit(const QueryDef& def) override;

  /// Graceful removal: blocks new ingest, quiesces the query's in-flight
  /// messages, retires its mailboxes. Producers attached to the query stop
  /// at their next (rejected) ingest.
  void Remove(const QueryHandle& q) override;

  /// Constructs and starts the runtime (idempotent; RunFor/Ingest call it).
  void Start();

  /// Replays every attached producer through the next `d` of virtual
  /// ingestion time (scaled to the wall clock), then drains.
  void RunFor(Duration d) override;

  /// Blocks until all accepted work has completed.
  void Drain() override;

  void Stop();

  // ---- direct ingestion (real columnar data; bypasses IngestSpecs) ----

  bool Ingest(OperatorId source, std::int64_t tuples,
              std::optional<LogicalTime> p = std::nullopt);
  bool IngestBatch(OperatorId source, EventBatch batch);

  SampleStats Latency(const QueryHandle& q) const override;
  double SuccessRate(const QueryHandle& q) const override;
  DataflowGraph& graph() override;
  SchedulerStats sched_stats() const override;
  std::string backend() const override { return "thread"; }

  /// Backend escape hatch (profiler, worker-pool growth, raw metrics).
  ThreadRuntime& runtime();

 private:
  /// One external producer: a source replica's arrival process, replayed on
  /// its own thread during RunFor.
  struct Producer {
    OperatorId op;
    TimeDomain domain = TimeDomain::kIngestionTime;
    Duration event_time_delay = 0;
    std::unique_ptr<ArrivalProcess> process;
    Rng rng;
    /// Keyed ingestion (optional): materializes batch columns; feeds
    /// IngestBatch instead of the synthetic Ingest path.
    std::unique_ptr<KeySampler> sampler;
    Rng key_rng;
    /// First arrival beyond the current RunFor window, buffered for the
    /// next one.
    std::optional<Arrival> pending;
    bool done = false;

    Producer() : rng(1), key_rng(1) {}
  };

  void AttachProducers(const QueryDef& def, const JobHandles& h);
  void AttachStage(const IngestSpec& spec, TimeDomain domain, StageId stage);

  DataflowGraph staging_;  // pre-Start topology
  std::unique_ptr<ThreadRuntime> runtime_;
  std::vector<std::unique_ptr<Producer>> producers_;
  SimTime ingest_elapsed_ = 0;  // virtual time already replayed
};

}  // namespace cameo
