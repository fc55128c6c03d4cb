// Backend-agnostic execution facade over the two runtimes.
//
// An Engine accepts QueryDefs (api/query_def.h), owns the execution backend
// they run on, and exposes the lifecycle both backends share:
//
//   Submit(def)            -> QueryHandle   (query joins, ingestion attaches)
//   Remove(handle)                          (graceful retirement)
//   RunFor(duration)                        (advance time; drive ingestion)
//   Drain()                                 (quiesce outstanding work)
//
// Two implementations:
//  - SimEngine (api/sim_engine.h): wraps sim::Cluster -- virtual time,
//    bit-reproducible, scripted churn via Submit(at, until, def).
//  - ThreadEngine (api/thread_engine.h): wraps ThreadRuntime -- wall clock,
//    ingestion specs become external producer threads, queries hot-add and
//    remove against live traffic.
//
// Both backends are configured through EngineOptions
// (api/engine_options.h), validated once at construction.
#pragma once

#include <string>
#include <utility>

#include "api/engine_options.h"
#include "api/query_def.h"
#include "common/histogram.h"

namespace cameo {

/// A submitted query. Cheap value type: the stage/job handles plus the
/// submission ticket (scripted sim queries only compile at their virtual
/// arrival time, so their job id resolves after the run reaches it).
struct QueryHandle {
  std::string name;
  JobHandles handles;
  /// SimEngine scripted-churn ticket; -1 for immediate submissions.
  int ticket = -1;

  JobId job() const { return handles.job; }
  bool valid() const { return handles.job.valid() || ticket >= 0; }
};

class Engine {
 public:
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits a query: compiles the definition into the backend's dataflow
  /// and attaches its ingestion spec (if any).
  virtual QueryHandle Submit(const QueryDef& def) = 0;

  /// Gracefully removes a submitted query (retires mailboxes, stops
  /// ingestion; accounting per backend contract).
  virtual void Remove(const QueryHandle& q) = 0;

  /// Advances the engine by `d`: virtual time for SimEngine, wall-clock
  /// producer replay for ThreadEngine.
  virtual void RunFor(Duration d) = 0;

  /// Blocks until outstanding work has completed (no-op in virtual time,
  /// where RunFor already leaves the horizon quiescent).
  virtual void Drain() = 0;

  /// End-to-end latency samples / met-deadline fraction of one query.
  virtual SampleStats Latency(const QueryHandle& q) const = 0;
  virtual double SuccessRate(const QueryHandle& q) const = 0;

  virtual DataflowGraph& graph() = 0;
  virtual SchedulerStats sched_stats() const = 0;
  virtual std::string backend() const = 0;

  const EngineOptions& options() const { return options_; }

 protected:
  explicit Engine(EngineOptions options) : options_(std::move(options)) {
    ValidateEngineOptions(options_);
  }

  EngineOptions options_;
};

}  // namespace cameo
