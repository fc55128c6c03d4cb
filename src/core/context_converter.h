// Context converter (paper §5, Algorithm 1): the upper layer of Cameo's
// two-level architecture, embedded into each operator. It creates and
// transforms Priority Contexts on the send path and maintains the
// Reply-Context view of downstream costs on the ack path, so the scheduler
// below stays stateless.
//
// One converter instance exists per operator. All methods mirror Algorithm 1:
//   BuildCxtAtSource    — PC for a message created by an external event
//   BuildCxtAtOperator  — PC for a message produced by an operator invocation
//   ProcessCtxFromReply — stores the RC piggybacked on an acknowledgement
//   PrepareReply        — builds the RC this operator sends upstream
//   CxtConvert          — TRANSFORM + PROGRESSMAP + policy priority
//
// Thread safety: a converter's send path runs under its operator's
// actor-model exclusivity, but ProcessCtxFromReply is invoked by whichever
// worker completed the *downstream* operator, concurrently with the send
// path, and source converters additionally face external ingest threads. A
// per-converter mutex (contended only between one producer and one acking
// worker of a single operator, never globally) makes every method safe.
//
// The Reply-Context view is a hash map from downstream target to the latest
// RC it sent. A flat vector of slots found by linear scan was measured
// against it (one conversion, 1 to 64 seeded targets): the map held 25-27 ns
// at every fan-out, the scan read 27-30 ns up to 8 targets and 35 ns at 32,
// and KeyBy stages reach 32 targets (DESIGN.md §4, "Context conversion
// cost").
#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/ids.h"
#include "common/time.h"
#include "core/policies.h"
#include "core/progress_map.h"
#include "core/transform.h"
#include "dataflow/graph.h"
#include "dataflow/message.h"

namespace cameo {

struct ConverterOptions {
  /// When false, TRANSFORM is skipped and t_MF falls back to t_M: the
  /// scheduler is topology-aware but not query-semantics-aware (Fig. 15).
  bool use_query_semantics = true;
  TimeDomain time_domain = TimeDomain::kIngestionTime;
};

/// An external event arriving at a source operator.
struct SourceEvent {
  LogicalTime p = 0;  // paper: p_e
  SimTime t = 0;      // paper: t_e
  // Token fair-sharing fields, filled by the source's TokenBucket when the
  // TokenFair policy is active.
  bool has_token = false;
  SimTime token_tag = 0;
  std::int64_t token_interval = 0;
};

class ContextConverter {
 public:
  ContextConverter(SchedulingPolicy* policy, ConverterOptions options)
      : policy_(policy),
        options_(options),
        progress_map_(options.time_domain) {
    CAMEO_EXPECTS(policy != nullptr);
  }

  /// Algorithm 1 lines 1-5. `self` is the source operator the message
  /// targets; `L` the dataflow latency constraint.
  PriorityContext BuildCxtAtSource(const SourceEvent& e, const Operator& self,
                                   Duration latency_constraint, MessageId id);

  /// Algorithm 1 lines 6-10. Called on the *sender* (`self`) for each routed
  /// delivery: the output batch carries logical time `out_p` (the sender's
  /// frontier progress) and physical time `out_t` (last contributing event).
  PriorityContext BuildCxtAtOperator(const PriorityContext& upstream,
                                     const Operator& self,
                                     const Operator& target, LogicalTime out_p,
                                     SimTime out_t, MessageId id);

  /// Algorithm 1 lines 19-20: remember the RC the downstream operator
  /// `from` sent back.
  void ProcessCtxFromReply(OperatorId from, const ReplyContext& rc);

  /// Algorithm 1 lines 21-24: RC advertised upstream. `own_cost` is this
  /// operator's profiled C_m.
  ReplyContext PrepareReply(Duration own_cost, Duration queueing_delay,
                            bool is_sink) const;

  /// Seeds the downstream-cost view before any ack arrives (cold start),
  /// e.g. from static critical-path analysis.
  void SeedReply(OperatorId target, const ReplyContext& rc);

  /// RC describing `target` (its C_m and downstream C_path); zeros before
  /// the first ack or seed. Returned by value: the stored RC may be
  /// overwritten concurrently by an acknowledgement.
  ReplyContext RcFor(OperatorId target) const;

  /// Not synchronized: for single-threaded inspection only.
  const ProgressMap& progress_map() const { return progress_map_; }

 private:
  /// Algorithm 1 lines 11-18. `sender_slide` is S_ou (0 for external events).
  /// Caller holds mu_.
  void CxtConvert(PriorityContext& pc, LogicalTime p, SimTime t,
                  LogicalTime sender_slide, const Operator& target);
  const ReplyContext& RcForLocked(OperatorId target) const;

  /// Shared across all converters of one backend; stateful policies
  /// (Stride/Lottery/MLFQ) synchronize internally (see core/policies.h).
  SchedulingPolicy* policy_;
  ConverterOptions options_;
  mutable std::mutex mu_;
  ProgressMap progress_map_;
  std::unordered_map<OperatorId, ReplyContext> rc_local_;
};

}  // namespace cameo
