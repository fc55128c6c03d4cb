// Figure 4: the paper's worked scheduling example. J1 is a bulk/batch
// analytics dataflow (lax deadline), J2 a latency-sensitive anomaly-detection
// pipeline (strict deadline), sharing one worker. Schedules:
//   (a) fair-share, small quantum  -> J2 misses deadlines
//   (b) fair-share, large quantum  -> J2 misses deadlines
//   (c) Cameo, topology-aware only -> fewer violations
//   (d) Cameo, + query semantics   -> fewest violations
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

RunResult RunConfig(const bench::BenchContext& ctx, SchedulerKind kind,
                    Duration quantum, bool semantics) {
  MultiTenantOptions opt;
  opt.engine.scheduler = kind;
  opt.engine.sched.quantum = quantum;
  opt.engine.use_query_semantics = semantics;
  opt.engine.workers = 1;
  opt.duration = ctx.Dur(Seconds(40));
  opt.ls_jobs = 1;  // J2: latency sensitive
  opt.ba_jobs = 1;  // J1: batch analytics
  opt.sources_per_job = 4;
  opt.aggs_per_job = 2;
  opt.ba_msgs_per_sec = 90;  // keeps the single worker ~80% busy
  return RunMultiTenant(opt);
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 4", "scheduling example: J1 batch + J2 latency-sensitive, "
                  "one worker",
      "fair-share schedules (a,b) violate J2's deadline; topology-aware "
      "Cameo (c) reduces violations; semantics-aware Cameo (d) reduces them "
      "further");
  struct Config {
    const char* label;
    SchedulerKind kind;
    Duration quantum;
    bool semantics;
  };
  const Config configs[] = {
      {"(a) fair-share small q", SchedulerKind::kFifo, Millis(1), true},
      {"(b) fair-share large q", SchedulerKind::kFifo, Millis(100), true},
      {"(c) Cameo topology", SchedulerKind::kCameo, Millis(1), false},
      {"(d) Cameo semantics", SchedulerKind::kCameo, Millis(1), true},
  };
  PrintHeaderRow("schedule",
                 {"J2_median", "J2_p99", "J2_deadlines_met", "J1_median"});
  for (const Config& c : configs) {
    RunResult r = RunConfig(ctx, c.kind, c.quantum, c.semantics);
    PrintRow(c.label, {FormatMs(r.GroupPercentile("LS", 50)),
                       FormatMs(r.GroupPercentile("LS", 99)),
                       FormatPct(r.GroupSuccessRate("LS")),
                       FormatMs(r.GroupPercentile("BA", 50))});
    const std::string key(c.label);
    ctx.Metric(key + ".J2_median_ms", r.GroupPercentile("LS", 50));
    ctx.Metric(key + ".J2_p99_ms", r.GroupPercentile("LS", 99));
    ctx.Metric(key + ".J2_deadlines_met", r.GroupSuccessRate("LS"));
    ctx.Metric(key + ".J1_median_ms", r.GroupPercentile("BA", 50));
  }
}

CAMEO_BENCH_REGISTER("fig04_example", "Figure 4",
                     "worked scheduling example: batch + latency-sensitive "
                     "on one worker",
                     Run);

}  // namespace
}  // namespace cameo
