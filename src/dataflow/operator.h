// Dataflow operators.
//
// A dataflow job is a DAG of *stages*; each stage is parallelized into
// *operators* (paper §4.1). Operators are single-threaded actors: the runtime
// never invokes the same operator concurrently. An operator is `invoked` when
// it processes an input message and `triggered` when an invocation produces
// output. Regular operators trigger on every invocation; windowed operators
// trigger when stream progress crosses a window boundary.
//
// Execution cost: the discrete-event simulator charges each invocation the
// operator's CostModel (per-batch fixed cost + per-tuple cost, optionally
// noisy). Cameo itself never reads the model; it learns costs from Reply
// Contexts via the profiler, exactly as the paper's implementation profiles
// CPU time.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "dataflow/message.h"

namespace cameo {

/// Window shape of an operator in logical-time ticks. `slide == 0` marks a
/// regular (non-windowed) operator that triggers on every invocation; for
/// tumbling windows slide == size; for sliding windows slide < size. A
/// session window (`gap > 0`) is data-driven: tuples within `gap` of each
/// other coalesce into one window that closes when the watermark passes the
/// last tuple's time + gap. Sessions carry size == slide == gap so
/// window-agnostic consumers (TRANSFORM, latency attribution) treat them as
/// gap-sized tumbling windows, which is the tightest static approximation.
struct WindowSpec {
  LogicalTime size = 0;
  LogicalTime slide = 0;
  LogicalTime gap = 0;  // > 0 marks a data-driven session window

  bool windowed() const { return slide > 0; }
  bool session() const { return gap > 0; }

  static WindowSpec Regular() { return {}; }
  static WindowSpec Tumbling(LogicalTime size) { return {size, size, 0}; }
  static WindowSpec Sliding(LogicalTime size, LogicalTime slide) {
    return {size, slide, 0};
  }
  static WindowSpec Session(LogicalTime gap) { return {gap, gap, gap}; }
};

/// Ground-truth execution cost of one invocation, used by the simulator (and
/// by the wall-clock runtime when asked to emulate compute via spinning).
struct CostModel {
  Duration fixed = 0;      // per-invocation cost
  Duration per_tuple = 0;  // multiplied by batch size
  double noise_frac = 0;   // lognormal-ish multiplicative jitter, 0 = exact

  Duration Sample(std::int64_t tuples, Rng& rng) const {
    auto base = static_cast<double>(fixed) +
                static_cast<double>(per_tuple) * static_cast<double>(tuples);
    if (noise_frac > 0) base *= (1.0 + rng.Normal(0.0, noise_frac));
    return base < 1 ? 1 : static_cast<Duration>(base);
  }
  Duration Expected(std::int64_t tuples) const {
    return fixed + per_tuple * tuples;
  }
};

/// Sink for operator output. The runtime routes emitted batches to the
/// stage's downstream operators (partitioned or broadcast).
class Emitter {
 public:
  virtual ~Emitter() = default;
  /// Emits `batch` on output port `port` (stage-level edge index).
  /// `event_time` is the physical arrival time of the last event that
  /// influenced this output (paper: t_M of the produced message).
  virtual void Emit(int port, EventBatch batch, SimTime event_time) = 0;
};

/// Runtime services visible to an operator during Invoke.
struct InvokeContext {
  SimTime now = 0;
  Emitter* emitter = nullptr;  // never null during Invoke
  Rng* rng = nullptr;
  /// The invoked message's batch, offered by a caller that owns the message
  /// and is done with its columns once Invoke returns; an operator that
  /// forwards its input, or rewrites it in place, may move from it instead
  /// of copying. Null means the caller keeps the batch.
  EventBatch* input = nullptr;
};

class Operator {
 public:
  Operator(std::string name, WindowSpec window, CostModel cost)
      : name_(std::move(name)), window_(window), cost_(cost) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Processes one input message; may emit zero or more output batches.
  virtual void Invoke(const Message& m, InvokeContext& ctx) = 0;

  /// True for sinks (no downstream stages); drives PrepareReply's base case.
  virtual bool is_sink() const { return false; }
  virtual bool is_source() const { return false; }

  const std::string& name() const { return name_; }
  const WindowSpec& window() const { return window_; }
  const CostModel& cost_model() const { return cost_; }

  OperatorId id() const { return id_; }
  StageId stage() const { return stage_; }
  JobId job() const { return job_; }

  /// Wired by DataflowGraph when the operator is added.
  void Bind(OperatorId id, StageId stage, JobId job) {
    id_ = id;
    stage_ = stage;
    job_ = job;
  }

 private:
  std::string name_;
  WindowSpec window_;
  CostModel cost_;
  OperatorId id_;
  StageId stage_;
  JobId job_;
};

using OperatorFactory = std::function<std::unique_ptr<Operator>(int replica)>;

}  // namespace cameo
