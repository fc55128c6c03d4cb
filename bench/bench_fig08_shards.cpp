// Figure 8 (scale-out panel): weak scaling of the keyed per-user workload
// across simulated machines. Per-shard resources are fixed (4 workers, 2
// sources, 4 counter replicas, 125k users) and the shard count sweeps
// 1 -> 8, so the offered load grows with the cluster: 1M simulated users at
// 8 shards. Cross-shard edges ship serialized frames (src/shard/wire.h)
// over the modeled transport; everything else is the fig_slates pipeline.
//
// Gates (via the `_met_rate`-suffix convention of compare_baselines.py):
//   - per-shard-count deadline-met rate and p99 (deterministic per seed);
//   - `gate.monotone_met_rate`: 1.0 iff served throughput is monotone
//     non-decreasing in the shard count (weak scaling holds);
//   - `gate.parity_met_rate`: 1.0 iff every multi-shard met rate stays
//     within 5 points of the single-shard run (the transport hop must not
//     cost deadlines beyond its modeled link delay).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

constexpr std::int64_t kUsersPerShard = 125'000;

KeyedScenarioOptions PanelOptions(bench::BenchContext& ctx, int shards) {
  KeyedScenarioOptions opt;
  opt.dist = KeyDistribution::kZipf;  // per-user traffic is long-tailed
  opt.zipf_s = 0.9;
  opt.num_keys = kUsersPerShard * shards;
  opt.sources = 2 * shards;
  opt.counters = 4 * shards;
  opt.splits = 2;
  opt.merge_replicas = std::max(2, shards);
  opt.msgs_per_sec = 20;
  opt.tuples_per_msg = 2000;
  opt.counter_per_tuple = 400;  // ns per tuple
  opt.engine.workers = 4;  // per shard
  opt.engine.shards = shards;
  opt.duration = ctx.Dur(Seconds(30), Seconds(3));
  opt.constraint = Millis(800);
  opt.engine.seed = 42;
  return opt;
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 8 (scale-out)", "weak scaling across shards (125k users each)",
      "served throughput grows ~linearly with shards; deadline-met rate "
      "stays within 5 points of single-shard");
  PrintHeaderRow("shards", {"users", "met", "p99", "served_tps", "frames",
                            "wire_MB"});

  // Smoke keeps the sweep to 1 + 2 shards so the ctest gate stays fast; the
  // full panel runs the paper-style 1/2/4/8 ladder to 1M users.
  const std::vector<int> counts =
      ctx.smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::vector<double> served, met;
  for (int shards : counts) {
    const KeyedScenarioOptions opt = PanelOptions(ctx, shards);
    const KeyedScenarioResult r = RunKeyedScenario(opt);
    const double met_rate = r.run.GroupSuccessRate("KEYED");
    const double p99 = r.run.GroupPercentile("KEYED", 99);
    const double tps = r.run.GroupThroughput("KEYED");
    served.push_back(tps);
    met.push_back(met_rate);

    // Appended, not "s" + ...: GCC 12 -O3 warns -Wrestrict on that.
    const std::string tag = std::string("s").append(std::to_string(shards));
    char mb[32];
    std::snprintf(mb, sizeof(mb), "%.2f",
                  static_cast<double>(r.wire_bytes) / (1024.0 * 1024.0));
    PrintRow(tag, {std::to_string(opt.num_keys), FormatPct(met_rate),
                   FormatMs(p99),
                   std::to_string(static_cast<std::int64_t>(tps)),
                   std::to_string(r.frames_sent), mb});
    ctx.Metric(tag + "_met_rate", met_rate);
    ctx.Metric(tag + "_p99_ms", p99);
    ctx.Metric(tag + ".served_tps", tps);
    ctx.Metric(tag + ".frames_sent", static_cast<double>(r.frames_sent));
    ctx.Metric(tag + ".wire_bytes", static_cast<double>(r.wire_bytes));
    // Placement balance: dispatched-message ratio of the busiest to the
    // average shard (1.0 = perfectly even; informational).
    if (shards > 1 && !r.shard_sched.empty()) {
      std::uint64_t total = 0, peak = 0;
      for (const SchedulerStats& s : r.shard_sched) {
        total += s.dispatched;
        peak = std::max(peak, s.dispatched);
      }
      if (total > 0) {
        ctx.Metric(tag + ".balance_peak_over_mean",
                   static_cast<double>(peak) * shards /
                       static_cast<double>(total));
      }
    }
  }

  // Verdicts. Served throughput is virtual-time deterministic, so monotone
  // means monotone -- the 0.1% slack only forgives float summation order.
  bool monotone = true;
  for (std::size_t i = 1; i < served.size(); ++i) {
    if (served[i] < served[i - 1] * 0.999) monotone = false;
  }
  bool parity = true;
  for (std::size_t i = 1; i < met.size(); ++i) {
    if (met[i] < met[0] - 0.05) parity = false;
  }
  std::printf("scale-out: throughput %s, met-rate parity %s\n",
              monotone ? "monotone" : "NOT monotone",
              parity ? "within 5 points of single-shard"
                     : "NOT within 5 points of single-shard");
  ctx.Metric("gate.monotone_met_rate", monotone ? 1.0 : 0.0);
  ctx.Metric("gate.parity_met_rate", parity ? 1.0 : 0.0);
}

CAMEO_BENCH_REGISTER("fig08_shards", "Figure 8",
                     "weak scaling: keyed per-user workload across 1-8 "
                     "shards with wire-serialized cross-shard edges",
                     Run);

}  // namespace
}  // namespace cameo
