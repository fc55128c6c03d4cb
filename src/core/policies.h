// Pluggable scheduling policies (paper §4, §5.4) plus the fair-share and
// feedback policies of the fig11 tournament.
//
// A policy maps the dataflow-defined context fields (p_MF, t_MF, L) plus the
// downstream Reply Context onto the (PRI_local, PRI_global) pair the
// scheduler orders by. Smaller priority = more urgent. The scheduler breaks
// equal priorities on the message id — a strict, deterministic FIFO
// tie-break (see ReadyKey in sched/ready_queue.h and the mailbox local-order
// heap) — so no policy ever produces an unspecified dispatch order.
//
//   LLF (default): ddl_M = t_MF + L − C_oM − C_path            (Eq. 3)
//   EDF:           ddl_M = t_MF + L − C_path                   (§4.2: omit C_oM)
//   SJF:           profiled C_oM of the target operator (not deadline-aware);
//                  cold start (no estimate yet) pins PRI_global to 0 so
//                  unprofiled operators run first, FIFO by message id
//   TokenFair:     token timestamp, or the floor when untokened (§5.4)
//   Stride:        deterministic fair share — each job advances a pass value
//                  by stride = kStrideScale / kTickets per assigned message;
//                  new jobs join at the global pass floor
//   Lottery:       randomized fair share — an exponential-race draw per
//                  message from a PRNG seeded off the run seed, so
//                  fixed-seed replays are bit-identical
//   MLFQ:          multi-level feedback — per-operator level, demotion when
//                  the operator's consumed service exceeds its level
//                  allotment, periodic boost back to the top level
//
// The roster is defined once, in the registry table inside policies.cpp:
// ValidPolicyNames() and MakePolicy() both derive from it, so the name list
// and the factory can never drift apart. Sweeps (bench_fig11_policies) must
// iterate ValidPolicyNames() rather than hard-coding names for the same
// reason.
//
// Thread safety: one policy instance is shared by every operator's
// ContextConverter, so AssignPriority/OnInvoked may be called concurrently
// from different operators' send paths. Stateless policies (LLF, EDF,
// TokenFair) need no synchronization; the stateful ones (SJF's cold-start
// counter, Stride, Lottery, MLFQ) synchronize internally. Under the
// single-threaded simulator backend the internal locks are uncontended and
// every stateful decision is made in deterministic event order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dataflow/context.h"
#include "dataflow/message.h"

namespace cameo {

class CostReader;  // core/profiler.h

/// Knobs consumed at MakePolicy() time. `seed` feeds the Lottery PRNG (and
/// any future randomized policy) so a fixed-seed run replays bit-identically.
struct PolicyOptions {
  std::uint64_t seed = 1;
};

/// Tickets per job for the fair-share policies (Stride, Lottery): every job
/// holds the same count until per-job weights are plumbed through.
inline constexpr std::int64_t kTickets = 100;

/// MLFQ: number of levels, level-0 service allotment (doubles per level),
/// and the periodic boost interval that returns every operator to level 0.
inline constexpr int kMlfqLevels = 4;
inline constexpr Duration kMlfqQuantum = Millis(10);
inline constexpr Duration kMlfqBoostPeriod = Seconds(1);

/// One named per-policy statistic (demotions, boosts, cold starts, ...),
/// surfaced through RunResult::policy_counters and the fig11 tournament.
struct PolicyCounter {
  std::string name;
  std::int64_t value = 0;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Fills pc.pri_local / pc.pri_global from the already-updated context
  /// fields (frontier_progress, frontier_time, latency_constraint, token
  /// state) and the Reply Context of the message's target operator `target`.
  /// May update internal policy state; must be internally thread-safe.
  virtual void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                              OperatorId target) = 0;

  /// Optional direct read path into the cost profiler (SJF); default no-op.
  /// `reader` must outlive the policy.
  virtual void BindCostReader(const CostReader* reader) { (void)reader; }

  /// Execution feedback: `op` of job `job` just consumed `measured` ns at
  /// time `now`. Drives MLFQ demotion/boost; default no-op. Must be
  /// internally thread-safe.
  virtual void OnInvoked(OperatorId op, JobId job, Duration measured,
                         SimTime now) {
    (void)op, (void)job, (void)measured, (void)now;
  }

  /// Per-policy statistics snapshot (exact once workers are quiescent).
  virtual std::vector<PolicyCounter> Counters() const { return {}; }

  virtual std::string name() const = 0;
};

class LeastLaxityFirst final : public SchedulingPolicy {
 public:
  void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                      OperatorId target) override;
  std::string name() const override { return "LLF"; }
};

class EarliestDeadlineFirst final : public SchedulingPolicy {
 public:
  void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                      OperatorId target) override;
  std::string name() const override { return "EDF"; }
};

/// Shortest job first on the profiled cost of the target operator: the
/// bound CostReader (the backend's CostProfiler) is consulted directly;
/// without one the cost piggybacked on the Reply Context is used. Cold
/// start — no estimate from either path — assigns PRI_global = 0: an
/// unprofiled operator is optimistically treated as the shortest job (it
/// runs soon, which is also what produces its first profile sample), and
/// equal-priority messages dispatch FIFO by message id (deterministic; see
/// the header comment).
class ShortestJobFirst final : public SchedulingPolicy {
 public:
  void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                      OperatorId target) override;
  void BindCostReader(const CostReader* reader) override { costs_ = reader; }
  std::vector<PolicyCounter> Counters() const override;
  std::string name() const override { return "SJF"; }

 private:
  const CostReader* costs_ = nullptr;
  std::atomic<std::int64_t> cold_starts_{0};
};

/// Token-based proportional fair sharing (paper §5.4): tokened messages are
/// ordered by token timestamp; untokened traffic sinks to the priority floor
/// and is served only when no tokened work is pending.
class TokenFair final : public SchedulingPolicy {
 public:
  void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                      OperatorId target) override;
  std::string name() const override { return "TokenFair"; }
};

/// Deterministic stride fair sharing across jobs: job J's messages carry its
/// pass value as PRI_global, and each assignment advances the pass by
/// stride(J) = kStrideScale / kTickets. With equal tickets the cluster
/// round-robins messages across jobs regardless of offered load. A job's
/// first message joins at the global pass floor (the largest pass already
/// handed out), so a late joiner cannot monopolize workers while it catches
/// up — the classic stride-scheduling join rule.
class StrideFair final : public SchedulingPolicy {
 public:

  void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                      OperatorId target) override;
  std::vector<PolicyCounter> Counters() const override;
  std::string name() const override { return "Stride"; }

  static constexpr std::int64_t kStrideScale = std::int64_t{1} << 20;

 private:
  struct JobState {
    std::int64_t pass = 0;
    std::int64_t stride = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<JobId, JobState> jobs_;
  std::int64_t pass_floor_ = 0;  // max pass assigned so far (monotone)
  std::int64_t joins_ = 0;
};

/// Randomized lottery fair sharing: every message draws PRI_global from an
/// exponential race (pri = −ln(U) · kLotteryScale / kTickets), so dispatch
/// order is a ticket-weighted lottery among pending messages. The PRNG is
/// seeded from PolicyOptions::seed — the draw sequence, and therefore the
/// whole schedule, replays bit-identically for a fixed seed.
class LotteryFair final : public SchedulingPolicy {
 public:
  explicit LotteryFair(const PolicyOptions& opts)
      : rng_(opts.seed ^ 0xA5A5A5A55A5A5A5AULL) {}

  void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                      OperatorId target) override;
  std::vector<PolicyCounter> Counters() const override;
  std::string name() const override { return "Lottery"; }

  static constexpr double kLotteryScale = 1e9;

 private:
  mutable std::mutex mu_;
  Rng rng_;
  std::int64_t draws_ = 0;
};

/// Multi-level feedback queue over operators: every operator starts at level
/// 0 (most urgent); when its consumed service since the last level change
/// exceeds the level's allotment (kMlfqQuantum · 2^level) it is demoted one
/// level, and every kMlfqBoostPeriod all operators are boosted back to
/// level 0 (starvation escape). PRI_global = level · kLevelBand + a
/// monotone sequence number, so dispatch is strict level order with FIFO
/// inside each level. Demotion is driven by OnInvoked feedback (measured
/// invocation cost), i.e. by service actually consumed, not estimates.
class MultiLevelFeedback final : public SchedulingPolicy {
 public:
  void AssignPriority(PriorityContext& pc, const ReplyContext& rc,
                      OperatorId target) override;
  void OnInvoked(OperatorId op, JobId job, Duration measured,
                 SimTime now) override;
  std::vector<PolicyCounter> Counters() const override;
  std::string name() const override { return "MLFQ"; }

  /// Levels are bands of 2^44 sequence numbers: a run would need ~1.7e13
  /// assignments per level to overflow into the next band.
  static constexpr Priority kLevelBand = Priority{1} << 44;

  /// Current level of `op` (tests/telemetry).
  int LevelOf(OperatorId op) const;

 private:
  struct OpState {
    int level = 0;
    Duration consumed = 0;  // service since the last level change
  };

  Duration AllotmentLocked(int level) const {
    return kMlfqQuantum << level;
  }

  mutable std::mutex mu_;
  std::unordered_map<OperatorId, OpState> ops_;
  std::int64_t seq_ = 0;
  SimTime last_boost_ = 0;
  std::int64_t demotions_ = 0;
  std::int64_t boosts_ = 0;
};

/// The policy roster, in registration order — derived from the registry
/// table in policies.cpp, the single source of truth MakePolicy() shares.
/// `EngineOptions` (ValidateEngineOptions) and `RuntimeConfig` validate
/// their `policy` strings against this list as soon as they are consumed,
/// and every policy sweep must iterate it (never a hand-written name list)
/// so a roster addition cannot silently vanish from an ablation.
const std::vector<std::string>& ValidPolicyNames();

bool IsValidPolicyName(const std::string& name);

/// CHECK-fails fast -- printing the offending string and the roster of valid
/// names -- when `name` is not a registered policy.
void CheckPolicyName(const std::string& name);

std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& name,
                                             const PolicyOptions& opts = {});

}  // namespace cameo
