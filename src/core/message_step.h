// The per-message protocol of paper §5.3, Fig. 5(a), written once for both
// backends (sim::Cluster and ThreadRuntime). `SourceMessage` turns an
// external event into a source message (context built at the sender).
// `RunMessageStep` invokes a dequeued message's operator, then runs, in
// order: profiler record, policy OnInvoked, processed-volume accounting
// (sources), Route + BuildCxtAtOperator per emitted batch, PrepareReply for
// the sender, sink accounting, and the recycle of the message's columns.
//
// The step owns the message, so it offers the batch to the operator as
// `InvokeContext::input`: a source (or a map) forwards it by move, and the
// message's batch reads 0 rows afterwards. Everything after Invoke that counts rows
// (the cost hook, processed volume, sink tuples) uses the row count taken
// before Invoke.
//
// What differs between backends is a compile-time hook on `Hooks`:
//   SimTime InvokeStart()                            InvokeContext::now
//   StepClock InvokeEnd(const Operator&, std::int64_t rows, SimTime start)
//   MessageId NextId()
//   void Deliver(Message)                            one routed output
//   void Reply(OperatorId sender, OperatorId from, const ReplyContext&)
//   latency()   a recorder with LatencyRecorder's OnProcessed /
//               OnSinkOutput / OnSinkTuples signatures
#pragma once

#include <utility>
#include <vector>

#include "core/context_converter.h"
#include "core/policies.h"
#include "core/profiler.h"
#include "dataflow/graph.h"
#include "dataflow/operator.h"

namespace cameo {

/// One batch an invocation emitted, held until the invocation returns.
struct EmittedBatch {
  int port = 0;
  EventBatch batch;
  SimTime event_time = 0;
};

/// Appends an invocation's outputs to a caller-owned vector, so its capacity
/// is reused invocation to invocation.
class BufferingEmitter final : public Emitter {
 public:
  explicit BufferingEmitter(std::vector<EmittedBatch>& outs) : outs_(outs) {}

  void Emit(int port, EventBatch batch, SimTime event_time) override {
    outs_.push_back({port, std::move(batch), event_time});
  }

 private:
  std::vector<EmittedBatch>& outs_;
};

/// Backend clock readings for one invocation.
struct StepClock {
  Duration cost = 0;     // profiled C_m
  SimTime now = 0;       // timestamp of the step's records
  SimTime dequeued = 0;  // end of queueing (reply's queueing delay)
};

/// The tables a step reads, identical in type on both backends.
struct StepTables {
  DataflowGraph& graph;
  CostProfiler& profiler;
  std::vector<EmittedBatch>& outs;  // scratch, reused across invocations
  std::vector<DataflowGraph::Delivery>& routed;  // scratch, likewise
  Rng& rng;                                      // handed to Operator::Invoke
};

/// Builds the message an external event `e` at `source` becomes and records
/// the arrival for latency attribution.
template <class Recorder>
Message SourceMessage(Recorder& latency, ContextConverter& converter,
                      const Operator& source, const JobSpec& spec,
                      const SourceEvent& e, MessageId id, EventBatch batch) {
  latency.OnSourceEvent(source.job(), e.p, e.t);
  Message m;
  m.pc = converter.BuildCxtAtSource(e, source, spec.latency_constraint, id);
  m.id = m.pc.id;
  m.target = source.id();
  m.event_time = e.t;
  m.batch = std::move(batch);
  return m;
}

/// Runs one dequeued message `m` through its operator and the protocol
/// above. `converter` and `policy` belong to the operator `m` targets.
template <class Hooks>
void RunMessageStep(const StepTables& t, Hooks& hooks, Message& m,
                    ContextConverter& converter, SchedulingPolicy& policy) {
  const OperatorId self = m.target;
  Operator& op = t.graph.Get(self);
  t.outs.clear();
  BufferingEmitter emitter(t.outs);
  const std::int64_t rows = m.batch.size();  // before a source consumes it
  const SimTime start = hooks.InvokeStart();
  InvokeContext ctx{start, &emitter, &t.rng, &m.batch};
  op.Invoke(m, ctx);
  const StepClock clock = hooks.InvokeEnd(op, rows, start);

  t.profiler.Record(self, clock.cost);
  policy.OnInvoked(self, op.job(), clock.cost, clock.now);
  auto& latency = hooks.latency();
  if (op.is_source()) latency.OnProcessed(op.job(), rows, clock.now);

  for (EmittedBatch& out : t.outs) {
    t.routed.clear();
    t.graph.Route(self, out.port, std::move(out.batch), t.routed);
    for (auto& d : t.routed) {
      Message md;
      md.pc = converter.BuildCxtAtOperator(m.pc, op, t.graph.Get(d.target),
                                           d.batch.progress, out.event_time,
                                           hooks.NextId());
      md.id = md.pc.id;
      md.target = d.target;
      md.sender = self;
      md.event_time = out.event_time;
      md.batch = std::move(d.batch);
      hooks.Deliver(std::move(md));
    }
  }

  // Acknowledge upstream with a Reply Context (paper Fig. 5(a), steps 5-6).
  if (m.sender.valid()) {
    hooks.Reply(m.sender, self,
                converter.PrepareReply(t.profiler.Estimate(self),
                                       clock.dequeued - m.enqueue_time,
                                       op.is_sink()));
  }

  if (op.is_sink()) {
    const bool windowed = t.graph.job(op.job()).output_slide > 0;
    latency.OnSinkOutput(op.job(), windowed ? m.progress() : m.event_time,
                         clock.now);
    latency.OnSinkTuples(op.job(), rows);
  }
  // Last reader of this message's columns: park them for reuse (a no-op
  // when the operator moved them on).
  m.batch.Recycle();
}

}  // namespace cameo
