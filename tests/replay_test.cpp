// Golden seed-replay regression suite: fixed-seed sim::Cluster scenarios
// with their exact run summaries pinned (messages delivered, outputs,
// met-deadline counts, coarse p99 buckets; for the control group also the
// dispatch-order counters of every scheduler). The simulator is
// bit-deterministic for a fixed seed, so any accidental change to
// scheduling order, routing, retirement accounting or priority generation
// fails these tests loudly instead of silently shifting every benchmark.
//
// Updating the goldens: when a PR *deliberately* changes scheduling
// behaviour, run the suite and copy the "actual" values from the failure
// output (each EXPECT names the field); the new constants are the review
// artifact. Never update them to paper over an unintended diff.
//
// The p99 figures are pinned as whole-millisecond buckets, not raw doubles:
// sample ordering is deterministic, but bucketing keeps the goldens readable
// and robust to float printing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "bench_util/scenarios.h"

namespace cameo {
namespace {

// ---- Golden values (see the update procedure above) ----

// Scenario 1: MultiTenantControlGroupSeed7, once per scheduler, at the
// control group's light BA load and at a loaded 100 msg/s (~80% busy, where
// worker wake-up order shows in Orleans's steals and Slot's queues). Counts,
// met and p99 are coarse; operator swaps, continuations and the summed
// output latency pin the dispatch order itself.
struct ControlGroupGolden {
  std::uint64_t messages;
  std::uint64_t dispatched;  // < messages when a backlog outlives the run
  std::uint64_t ls_outputs;
  std::uint64_t ba_outputs;
  std::uint64_t ls_met;
  std::int64_t ls_p99_ms;
  std::uint64_t operator_swaps;
  std::uint64_t continuations;
  std::int64_t latency_sum_us;
};
constexpr ControlGroupGolden kGoldenMtCameo{
    8109, 8109, 22, 2, 22, 5, 8095, 10, 132739};
constexpr ControlGroupGolden kGoldenMtFifo{
    8109, 8109, 22, 2, 22, 5, 8095, 0, 132739};
constexpr ControlGroupGolden kGoldenMtOrleans{
    8109, 8109, 22, 2, 22, 5, 8095, 0, 132739};
constexpr ControlGroupGolden kGoldenMtSlot{
    8109, 8109, 22, 2, 22, 6, 8104, 0, 156012};
constexpr ControlGroupGolden kGoldenMtLoadedCameo{
    38736, 38736, 22, 2, 22, 8, 38392, 340, 163760};
constexpr ControlGroupGolden kGoldenMtLoadedFifo{
    38736, 38736, 22, 2, 22, 12, 38559, 0, 198076};
constexpr ControlGroupGolden kGoldenMtLoadedOrleans{
    38736, 38736, 22, 2, 22, 16, 38540, 0, 181997};
constexpr ControlGroupGolden kGoldenMtLoadedSlot{
    38724, 31784, 22, 0, 22, 40, 31555, 204, 491793};
// The loaded Cameo run again with every scheduling knob the scenario forwards
// to the engine moved off its default (quantum, drain batch, semantics,
// profiler noise, switch cost): pins that each one still reaches the
// simulator.
constexpr ControlGroupGolden kGoldenMtKnobs{
    38736, 38736, 22, 2, 22, 14, 37900, 565, 202946};
// The loaded baselines again with a 4-message drain batch: pins the batched
// dispatch path of FIFO, Orleans and Slot (Cameo's is pinned by the knobs
// run above). Batching reorders all three against their batch-1 goldens.
constexpr ControlGroupGolden kGoldenMtBatchedFifo{
    38736, 38736, 22, 2, 22, 12, 38409, 0, 177482};
constexpr ControlGroupGolden kGoldenMtBatchedOrleans{
    38736, 38736, 22, 2, 22, 13, 38262, 1, 210796};
constexpr ControlGroupGolden kGoldenMtBatchedSlot{
    38720, 31883, 22, 0, 22, 119, 19430, 83, 2109092};

// Scenario 1b: SingleTenantTimelineSeed9 (IPQ1 with the dispatch timeline on
// and a 50 ms quantum, long enough to show in the continuation count)
constexpr std::uint64_t kGoldenSingleOutputs = 5;
constexpr std::uint64_t kGoldenSingleMet = 5;
constexpr std::int64_t kGoldenSingleP99Ms = 649;
constexpr std::size_t kGoldenSingleTimeline = 345;
constexpr std::uint64_t kGoldenSingleContinuations = 12;

// Scenario 2: TenantChurnSeed3
constexpr int kGoldenChurnTenants = 7;
constexpr int kGoldenChurnDeparted = 6;
constexpr std::uint64_t kGoldenChurnMessages = 22586;
constexpr std::int64_t kGoldenChurnPurged = 0;
constexpr std::uint64_t kGoldenChurnTenantOutputs = 16;
constexpr std::uint64_t kGoldenChurnTenantMet = 16;

// Scenario 3: SkewedWorkloadSeed11
constexpr std::uint64_t kGoldenSkewMessages = 3290;
constexpr std::uint64_t kGoldenSkewT1Outputs = 9;
constexpr std::uint64_t kGoldenSkewT2Outputs = 9;
constexpr std::uint64_t kGoldenSkewMet = 18;

// Scenario 4: KeyedZipfSlatesSeed5
constexpr std::uint64_t kGoldenKeyedMessages = 3258;
constexpr std::int64_t kGoldenKeyedRowsSeen = 1'272'000;
constexpr std::int64_t kGoldenKeyedCountEmitted = 1'120'000;
constexpr std::int64_t kGoldenKeyedLateDropped = 0;
constexpr std::uint64_t kGoldenKeyedOutputs = 14;
constexpr std::int64_t kGoldenKeyedP99Ms = 4;

// Scenario 5: ShardedKeyedSeed13 (shards=2, wire-serialized cross-shard edges)
constexpr std::uint64_t kGoldenShardMessages = 1668;
constexpr std::int64_t kGoldenShardRowsSeen = 636'000;
constexpr std::int64_t kGoldenShardFramesSent = 714;
constexpr std::uint64_t kGoldenShardOutputs = 14;
constexpr std::int64_t kGoldenShardP99Ms = 4;

std::int64_t P99Bucket(const RunResult& run, const std::string& prefix) {
  return static_cast<std::int64_t>(std::floor(run.GroupPercentile(prefix, 99)));
}

std::uint64_t MetCount(const RunResult& run, const std::string& prefix) {
  double met = 0;
  for (const JobResult& j : run.jobs) {
    if (j.name.rfind(prefix, 0) != 0) continue;
    met += j.success_rate * static_cast<double>(j.outputs);
  }
  return static_cast<std::uint64_t>(std::llround(met));
}

std::uint64_t Outputs(const RunResult& run, const std::string& prefix) {
  std::uint64_t outputs = 0;
  for (const JobResult& j : run.jobs) {
    if (j.name.rfind(prefix, 0) == 0) outputs += j.outputs;
  }
  return outputs;
}

// ---- Scenario 1: the §6.2 control-group multi-tenant workload ----

// Sum of every job's output latencies in whole microseconds: moves with any
// single output's completion time.
std::int64_t LatencySumUs(const RunResult& run) {
  double sum_ms = 0;
  for (const JobResult& j : run.jobs) {
    sum_ms += j.mean_ms * static_cast<double>(j.outputs);
  }
  return std::llround(sum_ms * 1000.0);
}

MultiTenantOptions ControlGroupOptions(SchedulerKind kind,
                                       double ba_msgs_per_sec) {
  MultiTenantOptions opt;
  opt.ls_jobs = 2;
  opt.ba_jobs = 2;
  opt.ba_msgs_per_sec = ba_msgs_per_sec;
  opt.engine.workers = 4;
  opt.duration = Seconds(12);
  opt.engine.seed = 7;
  opt.engine.scheduler = kind;
  return opt;
}

void ExpectControlGroupGolden(const MultiTenantOptions& opt,
                              const ControlGroupGolden& golden) {
  RunResult r = RunMultiTenant(opt);

  EXPECT_EQ(r.messages, golden.messages);
  EXPECT_EQ(r.sched.enqueued, r.messages);
  EXPECT_EQ(r.sched.dispatched, golden.dispatched);
  EXPECT_EQ(Outputs(r, "LS"), golden.ls_outputs);
  EXPECT_EQ(Outputs(r, "BA"), golden.ba_outputs);
  EXPECT_EQ(MetCount(r, "LS"), golden.ls_met);
  EXPECT_EQ(P99Bucket(r, "LS"), golden.ls_p99_ms);
  EXPECT_EQ(r.sched.operator_swaps, golden.operator_swaps);
  EXPECT_EQ(r.sched.continuations, golden.continuations);
  EXPECT_EQ(LatencySumUs(r), golden.latency_sum_us);
}

void ExpectControlGroupGolden(SchedulerKind kind, double ba_msgs_per_sec,
                              const ControlGroupGolden& golden) {
  SCOPED_TRACE(ToString(kind) + " at BA " +
               std::to_string(ba_msgs_per_sec) + " msg/s");
  ExpectControlGroupGolden(ControlGroupOptions(kind, ba_msgs_per_sec), golden);
}

TEST(ReplayTest, MultiTenantControlGroupSeed7) {
  ExpectControlGroupGolden(SchedulerKind::kCameo, 20, kGoldenMtCameo);
  ExpectControlGroupGolden(SchedulerKind::kCameo, 100, kGoldenMtLoadedCameo);
}

TEST(ReplayTest, MultiTenantControlGroupSeed7Fifo) {
  ExpectControlGroupGolden(SchedulerKind::kFifo, 20, kGoldenMtFifo);
  ExpectControlGroupGolden(SchedulerKind::kFifo, 100, kGoldenMtLoadedFifo);
}

// Orleans's steal order follows worker registration order. MakeScheduler
// registers workers 0..n-1 at construction, so it does not depend on when
// each worker first reaches the scheduler; these goldens pin the steals.
TEST(ReplayTest, MultiTenantControlGroupSeed7Orleans) {
  ExpectControlGroupGolden(SchedulerKind::kOrleans, 20, kGoldenMtOrleans);
  ExpectControlGroupGolden(SchedulerKind::kOrleans, 100,
                           kGoldenMtLoadedOrleans);
}

TEST(ReplayTest, MultiTenantControlGroupSeed7Slot) {
  ExpectControlGroupGolden(SchedulerKind::kSlot, 20, kGoldenMtSlot);
  ExpectControlGroupGolden(SchedulerKind::kSlot, 100, kGoldenMtLoadedSlot);
}

TEST(ReplayTest, MultiTenantControlGroupSeed7Knobs) {
  MultiTenantOptions opt = ControlGroupOptions(SchedulerKind::kCameo, 100);
  opt.engine.sched.quantum = Millis(4);
  opt.engine.sched.batch_size = 4;
  opt.engine.use_query_semantics = false;
  opt.engine.sim.profiler_perturbation = Micros(300);
  opt.engine.sim.switch_cost = Micros(50);
  ExpectControlGroupGolden(opt, kGoldenMtKnobs);
}

void ExpectBatchedControlGroupGolden(SchedulerKind kind,
                                     const ControlGroupGolden& golden) {
  SCOPED_TRACE(ToString(kind) + " at BA 100 msg/s, batch 4");
  MultiTenantOptions opt = ControlGroupOptions(kind, 100);
  opt.engine.sched.batch_size = 4;
  ExpectControlGroupGolden(opt, golden);
}

TEST(ReplayTest, MultiTenantControlGroupSeed7Batched) {
  ExpectBatchedControlGroupGolden(SchedulerKind::kFifo, kGoldenMtBatchedFifo);
  ExpectBatchedControlGroupGolden(SchedulerKind::kOrleans,
                                  kGoldenMtBatchedOrleans);
  ExpectBatchedControlGroupGolden(SchedulerKind::kSlot, kGoldenMtBatchedSlot);
}

// ---- Scenario 1b: single tenant with the dispatch timeline recorded ----

TEST(ReplayTest, SingleTenantTimelineSeed9) {
  SingleTenantOptions opt;
  opt.ipq = 1;
  opt.duration = Seconds(6);
  opt.engine.sched.quantum = Millis(50);
  opt.engine.sim.enable_timeline = true;
  opt.engine.seed = 9;
  SingleTenantResult r = RunSingleTenant(opt);

  EXPECT_EQ(Outputs(r.run, "IPQ"), kGoldenSingleOutputs);
  EXPECT_EQ(MetCount(r.run, "IPQ"), kGoldenSingleMet);
  EXPECT_EQ(P99Bucket(r.run, "IPQ"), kGoldenSingleP99Ms);
  EXPECT_EQ(r.timeline.size(), kGoldenSingleTimeline);
  EXPECT_EQ(r.run.sched.continuations, kGoldenSingleContinuations);
}

// ---- Scenario 2: tenant churn (hot add/remove) ----

TEST(ReplayTest, TenantChurnSeed3) {
  ChurnScenarioOptions opt;
  opt.engine.scheduler = SchedulerKind::kCameo;
  opt.engine.workers = 4;
  opt.duration = Seconds(20);
  opt.churn.end = opt.duration;
  opt.churn.arrivals_per_sec = 0.5;
  opt.churn.mean_lifetime = Seconds(6);
  opt.churn.min_lifetime = Seconds(3);
  opt.churn.max_concurrent = 6;
  opt.engine.seed = 3;
  ChurnScenarioResult r = RunChurnScenario(opt);

  EXPECT_EQ(r.tenants_added, kGoldenChurnTenants);
  EXPECT_EQ(r.tenants_departed, kGoldenChurnDeparted);
  EXPECT_EQ(r.run.messages, kGoldenChurnMessages);
  EXPECT_EQ(r.messages_purged, kGoldenChurnPurged);
  EXPECT_EQ(Outputs(r.run, "T"), kGoldenChurnTenantOutputs);
  EXPECT_EQ(MetCount(r.run, "T"), kGoldenChurnTenantMet);
  // Conservation across retirement: everything delivered was dispatched,
  // purged with accounting, or rejected at a retired mailbox.
  EXPECT_EQ(r.run.sched.enqueued, r.run.sched.dispatched + r.run.sched.purged);
}

// ---- Scenario 3: production-derived skew (Fig. 10 shape) ----

TEST(ReplayTest, SkewedWorkloadSeed11) {
  SkewScenarioOptions opt;
  opt.jobs_type1 = 1;
  opt.jobs_type2 = 1;
  opt.type1_tuples_per_sec = 200000;
  opt.type2_tuples_per_sec = 100000;
  opt.sources_per_job = 4;
  opt.engine.workers = 2;
  opt.duration = Seconds(10);
  opt.engine.seed = 11;
  RunResult r = RunSkewedScenario(opt);

  EXPECT_EQ(r.messages, kGoldenSkewMessages);
  EXPECT_EQ(Outputs(r, "T1-"), kGoldenSkewT1Outputs);
  EXPECT_EQ(Outputs(r, "T2-"), kGoldenSkewT2Outputs);
  EXPECT_EQ(MetCount(r, "T1-") + MetCount(r, "T2-"), kGoldenSkewMet);
}

// ---- Scenario 4: keyed slate state (Zipf skew, hot-key split) ----

TEST(ReplayTest, KeyedZipfSlatesSeed5) {
  KeyedScenarioOptions opt;
  opt.dist = KeyDistribution::kZipf;
  opt.num_keys = 20'000;
  opt.zipf_s = 1.1;
  opt.splits = 2;
  opt.duration = Seconds(8);
  opt.engine.seed = 5;
  KeyedScenarioResult r = RunKeyedScenario(opt);

  EXPECT_EQ(r.run.messages, kGoldenKeyedMessages);
  EXPECT_EQ(r.rows_seen, kGoldenKeyedRowsSeen);
  // Counts are integer-valued doubles: bit-exact per-key counting makes the
  // emitted total pin exactly.
  EXPECT_EQ(static_cast<std::int64_t>(r.count_emitted),
            kGoldenKeyedCountEmitted);
  EXPECT_EQ(r.late_dropped, kGoldenKeyedLateDropped);
  EXPECT_EQ(Outputs(r.run, "KEYED"), kGoldenKeyedOutputs);
  EXPECT_EQ(P99Bucket(r.run, "KEYED"), kGoldenKeyedP99Ms);
}

// ---- Scenario 5: sharded keyed run (2 shards, modeled transport) ----

// The multi-shard runtime is deterministic end to end for a fixed seed: the
// InprocTransport's delay model draws from a seeded RNG and per-channel
// delivery order is total, so the frame count itself is a golden. Any drift
// in placement, wire encoding, or cross-shard watermark propagation moves
// these numbers.
TEST(ReplayTest, ShardedKeyedSeed13) {
  KeyedScenarioOptions opt;
  opt.dist = KeyDistribution::kZipf;
  opt.num_keys = 10'000;
  opt.zipf_s = 0.9;
  opt.sources = 2;
  opt.counters = 4;
  opt.splits = 2;
  opt.engine.shards = 2;
  opt.engine.workers = 2;  // per shard
  opt.duration = Seconds(8);
  opt.engine.seed = 13;
  KeyedScenarioResult r = RunKeyedScenario(opt);

  EXPECT_EQ(r.run.messages, kGoldenShardMessages);
  EXPECT_EQ(r.rows_seen, kGoldenShardRowsSeen);
  EXPECT_EQ(r.frames_sent, kGoldenShardFramesSent);
  // Transport drains at quiescence: every frame shipped was delivered.
  EXPECT_EQ(r.frames_sent, r.frames_received);
  EXPECT_EQ(Outputs(r.run, "KEYED"), kGoldenShardOutputs);
  EXPECT_EQ(P99Bucket(r.run, "KEYED"), kGoldenShardP99Ms);
}

}  // namespace
}  // namespace cameo
