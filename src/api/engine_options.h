// The one options type of both execution backends.
//
// The shared knobs (workers, scheduler, policy, semantics, seed) live at the
// top level; knobs only one backend can honour live in the `sim` and
// `wallclock` sub-structs, so it is explicit which settings survive a
// backend swap. `sim::Cluster` and its `shard::ShardRuntime` read these
// options directly, and the scenario builders (bench_util/scenarios.h) embed
// them, so a knob is spelled once.
//
// A value that no scenario, example or benchmark varies is a documented
// constant beside its code instead (e.g. kNetworkDelay in sim/cluster.cpp,
// shard::kDefaultLink, the SessionLayer timers; DESIGN.md §2 lists them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "core/policies.h"
#include "sched/scheduler.h"
#include "shard/fault_transport.h"
#include "shard/session.h"

namespace cameo {

/// Class-type members carry `{}` initializers so a designated initializer
/// (`EngineOptions{.workers = 8}`) may omit them without warnings.
struct EngineOptions {
  // ---- shared by both backends ----
  int workers = 4;
  SchedulerKind scheduler = SchedulerKind::kCameo;
  /// Scheduling knobs shared by every backend: re-scheduling quantum,
  /// starvation guard, and the claim-and-drain `batch_size` (how many
  /// messages one worker activation drains from a claimed operator; the
  /// Fig. 13 drain knob).
  SchedulerConfig sched{};
  /// Cameo scheduling policy; any name in ValidPolicyNames() (core/policies.h
  /// registry). Unknown names fail fast at engine construction, printing the
  /// live roster.
  std::string policy = "LLF";
  /// Fig. 15 ablation: topology-aware but not query-semantics-aware.
  bool use_query_semantics = true;
  std::uint64_t seed = 1;
  /// Simulated machines (src/shard/): operators spread across shards by
  /// consistent-hash placement, each shard runs its own scheduler + policy
  /// instance, and cross-shard edges are serialized through the wire codec.
  /// `workers` is per shard. 1 (default) reproduces the single-machine
  /// engine bit-identically. Only the sim backend can honour > 1; the
  /// wall-clock backend rejects it at construction.
  int shards = 1;

  /// Knobs only the simulated backend can honour.
  struct SimOptions {
    /// Charged when a worker switches operators (cache refill, activation
    /// swap); drives the Fig. 14 quantum trade-off.
    Duration switch_cost = Micros(20);
    /// Fig. 16: N(0, sigma) noise on profiled cost estimates.
    Duration profiler_perturbation = 0;
    /// Rare execution stragglers (GC pauses, page faults, JIT); a straggler
    /// runs kStragglerFactor (sim/cluster.cpp) times its sampled cost.
    double straggler_prob = 0.003;
    /// Seed profiler and Reply Contexts from static critical-path analysis
    /// (at kSeedNominalTuples tuples per message, sim/cluster.cpp).
    bool seed_static_estimates = true;
    bool enable_timeline = false;
    /// Reliable-delivery session layer over the shard transport
    /// (shard/session.h). Auto-enabled when `shard_faults` injects
    /// anything; off by default so clean runs stay bit-identical.
    shard::SessionConfig shard_session;
    /// Deterministic chaos schedule for the shard transport
    /// (shard/fault_transport.h).
    shard::FaultPlan shard_faults;
  } sim{};

  /// Knobs only the wall-clock backend can honour.
  struct WallClockOptions {
    /// Spin/sleep each invocation's CostModel duration to emulate compute.
    bool emulate_cost = true;
    /// Wall-clock seconds per virtual second when replaying ingestion specs
    /// (< 1 compresses a scenario's timeline into a faster real-time run).
    double time_scale = 1.0;
  } wallclock{};
};

/// Aborts naming the offending field when `o` cannot be honoured: worker and
/// shard bounds, a negative switch cost (which would otherwise surface as an
/// event scheduled in the past), a straggler probability outside [0, 1],
/// or an unknown policy name (printed with the roster). Called by every
/// constructor that consumes EngineOptions.
inline void ValidateEngineOptions(const EngineOptions& o) {
  CAMEO_EXPECTS(o.workers >= 1 && o.workers <= Scheduler::kMaxWorkers);
  CAMEO_EXPECTS(o.shards >= 1);
  CAMEO_EXPECTS(o.sim.switch_cost >= 0);
  CAMEO_EXPECTS(o.sim.straggler_prob >= 0 && o.sim.straggler_prob <= 1);
  CheckPolicyName(o.policy);
}

}  // namespace cameo
