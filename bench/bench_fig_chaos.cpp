// Chaos panel (robustness): the fig08 weak-scaling workload on 2 shards,
// swept across injected transport-fault schedules (src/shard/
// fault_transport.h) with the reliable-delivery session layer
// (src/shard/session.h) repairing the damage in flight. Ingestion stops 2 s
// before the horizon so retransmit chains converge before virtual time runs
// out; the conservation gates depend on that grace window.
//
// Gates (via the `_met_rate`-suffix convention of compare_baselines.py):
//   - per-schedule deadline-met rate and p99 (deterministic per seed);
//   - `gate.conservation_met_rate`: 1.0 iff every chaos run delivered each
//     distinct app frame exactly once (sent_unique == delivered) AND its
//     counters saw exactly the rows of the fault-free run -- faults may
//     cost latency, never data;
//   - `gate.determinism_met_rate`: 1.0 iff re-running a chaos schedule
//     in-process reproduces it bit-for-bit (same rows, frames, retransmits);
//   - `gate.drop1dup1_floor_met_rate`: 1.0 iff the met rate under 1% drop +
//     1% duplication stays >= 95% -- the paper-style claim that modest loss
//     degrades deadlines gracefully, not catastrophically.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

constexpr std::int64_t kUsersPerShard = 125'000;
constexpr int kShards = 2;

KeyedScenarioOptions BaseOptions(bench::BenchContext& ctx) {
  // The fig08 2-shard panel configuration (bench_fig08_shards.cpp), plus the
  // session layer and an ingest cutoff that leaves recovery headroom.
  KeyedScenarioOptions opt;
  opt.dist = KeyDistribution::kZipf;
  opt.zipf_s = 0.9;
  opt.num_keys = kUsersPerShard * kShards;
  opt.sources = 2 * kShards;
  opt.counters = 4 * kShards;
  opt.splits = 2;
  opt.merge_replicas = 2;
  opt.msgs_per_sec = 20;
  opt.tuples_per_msg = 2000;
  opt.counter_per_tuple = 400;  // ns per tuple
  opt.engine.workers = 4;              // per shard
  opt.engine.shards = kShards;
  opt.duration = ctx.Dur(Seconds(30), Seconds(4));
  opt.ingest_end = opt.duration - Seconds(2);
  opt.constraint = Millis(800);
  opt.engine.seed = 42;
  opt.engine.sim.shard_session.enabled = true;
  return opt;
}

struct ChaosConfig {
  const char* tag;
  shard::FaultPlan faults;
  bool smoke;  // part of the fast ctest sweep (and thus the baseline)
};

std::vector<ChaosConfig> Schedules(SimTime duration) {
  std::vector<ChaosConfig> cfgs;
  cfgs.push_back({"clean", {}, true});
  {
    shard::FaultPlan f;
    f.drop_rate = 0.01;
    f.dup_rate = 0.01;
    cfgs.push_back({"drop1dup1", f, true});
  }
  {
    shard::FaultPlan f;
    f.drop_rate = 0.05;
    cfgs.push_back({"drop5", f, true});
  }
  {
    shard::FaultPlan f;
    f.corrupt_rate = 0.02;
    f.delay_rate = 0.10;
    cfgs.push_back({"corrupt2delay10", f, false});
  }
  {
    shard::FaultPlan f;
    f.reorder_rate = 0.10;
    cfgs.push_back({"reorder10", f, false});
  }
  {
    shard::FaultPlan f;
    f.partitions.push_back({0, 1, Seconds(1), Seconds(1) + Millis(500)});
    cfgs.push_back({"partition500ms", f, false});
  }
  {
    shard::FaultPlan f;
    f.stalls.push_back({1, duration / 2, duration / 2 + Millis(300)});
    cfgs.push_back({"stall300ms", f, false});
  }
  return cfgs;
}

struct ChaosRun {
  KeyedScenarioResult r;
  double met = 0;
  double p99 = 0;
};

ChaosRun RunOne(const KeyedScenarioOptions& base,
                const shard::FaultPlan& faults) {
  KeyedScenarioOptions opt = base;
  opt.engine.sim.shard_faults = faults;
  ChaosRun out;
  out.r = RunKeyedScenario(opt);
  out.met = out.r.run.GroupSuccessRate("KEYED");
  out.p99 = out.r.run.GroupPercentile("KEYED", 99);
  return out;
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Chaos panel (robustness)",
      "fig08 2-shard workload under injected drop/dup/corrupt/delay/"
      "reorder/partition/stall schedules",
      "delivery conserved exactly under every schedule; met rate under "
      "1% drop + 1% dup stays >= 95%");
  PrintHeaderRow("schedule", {"met", "p99", "frames", "retx", "fast", "rto",
                              "dup_drop", "crpt", "rows"});

  const KeyedScenarioOptions base = BaseOptions(ctx);
  const std::vector<ChaosConfig> schedules = Schedules(base.duration);
  std::int64_t clean_rows = -1;
  bool conservation = true;
  double drop1dup1_met = 0;

  for (const ChaosConfig& cfg : schedules) {
    if (ctx.smoke && !cfg.smoke) continue;
    const ChaosRun run = RunOne(base, cfg.faults);
    const shard::TransportStats& ts = run.r.transport;
    if (clean_rows < 0) clean_rows = run.r.rows_seen;  // first row is clean

    PrintRow(cfg.tag,
             {FormatPct(run.met), FormatMs(run.p99),
              std::to_string(run.r.frames_sent),
              std::to_string(ts.retransmits),
              std::to_string(ts.fast_retransmits),
              std::to_string(ts.rto_retransmits), std::to_string(ts.dup_drops),
              std::to_string(ts.corrupt_drops),
              std::to_string(run.r.rows_seen)});
    const std::string tag = cfg.tag;
    ctx.Metric(tag + "_met_rate", run.met);
    ctx.Metric(tag + "_p99_ms", run.p99);
    ctx.Metric(tag + ".frames_sent", static_cast<double>(run.r.frames_sent));
    ctx.Metric(tag + ".rows_seen", static_cast<double>(run.r.rows_seen));
    ctx.Metric(tag + ".retransmits", static_cast<double>(ts.retransmits));
    ctx.Metric(tag + ".fast_retransmits",
               static_cast<double>(ts.fast_retransmits));
    ctx.Metric(tag + ".rto_retransmits",
               static_cast<double>(ts.rto_retransmits));
    ctx.Metric(tag + ".dup_drops", static_cast<double>(ts.dup_drops));
    ctx.Metric(tag + ".corrupt_drops", static_cast<double>(ts.corrupt_drops));
    ctx.Metric(tag + ".acks_sent", static_cast<double>(ts.acks_sent));

    // Conservation: exactly-once delivery of every distinct app frame, and
    // the dataflow saw the same data as the fault-free run.
    if (ts.sent_unique != ts.delivered) conservation = false;
    if (run.r.rows_seen != clean_rows) conservation = false;
    if (tag == "drop1dup1") drop1dup1_met = run.met;
  }

  // Bit-determinism: the drop1dup1 schedule, replayed in-process, must
  // reproduce every counter of the first run exactly.
  bool deterministic = true;
  {
    const ChaosConfig& cfg = schedules[1];  // drop1dup1
    const ChaosRun a = RunOne(base, cfg.faults);
    const ChaosRun b = RunOne(base, cfg.faults);
    deterministic =
        a.r.rows_seen == b.r.rows_seen &&
        a.r.count_emitted == b.r.count_emitted &&
        a.r.frames_sent == b.r.frames_sent &&
        a.r.transport.retransmits == b.r.transport.retransmits &&
        a.r.transport.dup_drops == b.r.transport.dup_drops &&
        a.r.transport.faults_dropped == b.r.transport.faults_dropped &&
        a.met == b.met && a.p99 == b.p99;
  }

  const bool floor_ok = drop1dup1_met >= 0.95;
  std::printf(
      "chaos: delivery %s, replay %s, drop1dup1 met %s (floor 95%%)\n",
      conservation ? "conserved exactly" : "NOT conserved",
      deterministic ? "bit-deterministic" : "NOT deterministic",
      floor_ok ? "above floor" : "BELOW floor");
  ctx.Metric("gate.conservation_met_rate", conservation ? 1.0 : 0.0);
  ctx.Metric("gate.determinism_met_rate", deterministic ? 1.0 : 0.0);
  ctx.Metric("gate.drop1dup1_floor_met_rate", floor_ok ? 1.0 : 0.0);
}

CAMEO_BENCH_REGISTER("fig_chaos", "Chaos panel",
                     "fault-injected 2-shard runs: reliable delivery, "
                     "bounded met-rate degradation, bit-determinism",
                     Run);

}  // namespace
}  // namespace cameo
