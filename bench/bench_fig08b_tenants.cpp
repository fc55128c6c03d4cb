// Figure 8(b): latency-sensitive jobs under an increasing *number* of
// bulk-analytics tenants. Paper: comparable up to ~12 Group-2 jobs; beyond,
// Orleans is worse than Cameo by up to 2.2x/2.8x (median/p99) and FIFO by up
// to 4.6x/13.6x, while Cameo stays stable.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 8(b)", "LS latency vs number of Group-2 tenants",
      "comparable until ~12 tenants; beyond, FIFO degrades most, Orleans "
      "next, Cameo stays stable");
  PrintHeaderRow("scheduler",
                 {"BA_jobs", "LS_med", "LS_p99", "BA_med", "util"});
  const std::vector<int> tenant_counts =
      ctx.smoke ? std::vector<int>{4, 20} : std::vector<int>{4, 8, 12, 16, 20};
  for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kOrleans,
                             SchedulerKind::kFifo}) {
    for (int tenants : tenant_counts) {
      MultiTenantOptions opt;
      opt.engine.scheduler = kind;
      opt.engine.workers = 4;
      opt.duration = ctx.Dur(Seconds(60));
      opt.ls_jobs = 4;
      opt.ba_jobs = tenants;
      opt.ba_msgs_per_sec = 20;
      RunResult r = RunMultiTenant(opt);
      PrintRow(ToString(kind),
               {std::to_string(tenants),
                FormatMs(r.GroupPercentile("LS", 50)),
                FormatMs(r.GroupPercentile("LS", 99)),
                FormatMs(r.GroupPercentile("BA", 50)),
                FormatPct(r.utilization)});
      const std::string key =
          ToString(kind) + ".tenants" + std::to_string(tenants);
      ctx.Metric(key + ".LS_median_ms", r.GroupPercentile("LS", 50));
      ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
    }
  }
}

CAMEO_BENCH_REGISTER("fig08b_tenants", "Figure 8(b)",
                     "LS latency vs number of Group-2 tenants",
                     Run);

}  // namespace
}  // namespace cameo
