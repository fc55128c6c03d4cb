// Figure 1: utilization vs tail latency for slot-based (Flink-style),
// simple-actor (Orleans), and Cameo scheduling. Paper: slot-based systems
// isolate but under-utilize; Orleans utilizes but has high tail latency;
// Cameo achieves both high utilization and low tail latency.
//
// Method: for a fixed multi-tenant workload, find the smallest worker count
// at which the latency-sensitive group's p99 meets its 800 ms target, then
// report the utilization at that provisioning. Fewer workers needed = higher
// utilization at equal service quality.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

RunResult RunAt(const bench::BenchContext& ctx, SchedulerKind kind,
                int workers) {
  MultiTenantOptions opt;
  opt.engine.scheduler = kind;
  opt.engine.workers = workers;
  opt.duration = ctx.Dur(Seconds(40));
  opt.ls_jobs = 4;
  opt.ba_jobs = 8;
  opt.ba_msgs_per_sec = 25;
  return RunMultiTenant(opt);
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 1", "utilization vs p99 latency at minimum provisioning",
      "slot-based: low utilization; Orleans: high tail; Cameo: high "
      "utilization and low tail");
  PrintHeaderRow("scheduler",
                 {"min_workers", "utilization", "LS_p99", "LS_median"});
  for (SchedulerKind kind : {SchedulerKind::kSlot, SchedulerKind::kOrleans,
                             SchedulerKind::kFifo, SchedulerKind::kCameo}) {
    int best_workers = -1;
    RunResult best;
    // A 100 ms p99 SLO on the latency-sensitive group: the provisioning a
    // dashboard-style tenant would actually demand.
    const int max_workers = ctx.smoke ? 6 : 16;
    for (int workers = 2; workers <= max_workers; ++workers) {
      RunResult r = RunAt(ctx, kind, workers);
      if (r.GroupPercentile("LS", 99) <= 100.0 &&
          r.GroupSuccessRate("LS") >= 0.99) {
        best_workers = workers;
        best = std::move(r);
        break;
      }
    }
    if (best_workers < 0) {
      // Appended, not ">" + ...: GCC 12 -O3 warns -Wrestrict on that.
      PrintRow(ToString(kind),
               {std::string(">").append(std::to_string(max_workers)), "-",
                "-", "-"});
      ctx.Metric(ToString(kind) + ".min_workers", -1);
      continue;
    }
    PrintRow(ToString(kind),
             {std::to_string(best_workers), FormatPct(best.utilization),
              FormatMs(best.GroupPercentile("LS", 99)),
              FormatMs(best.GroupPercentile("LS", 50))});
    ctx.Metric(ToString(kind) + ".min_workers", best_workers);
    ctx.Metric(ToString(kind) + ".utilization", best.utilization);
    ctx.Metric(ToString(kind) + ".LS_p99_ms", best.GroupPercentile("LS", 99));
    ctx.Metric(ToString(kind) + ".LS_median_ms",
               best.GroupPercentile("LS", 50));
  }
}

CAMEO_BENCH_REGISTER("fig01_util_latency", "Figure 1",
                     "utilization vs p99 latency at minimum provisioning",
                     Run);

}  // namespace
}  // namespace cameo
