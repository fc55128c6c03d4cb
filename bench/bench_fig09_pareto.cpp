// Figure 9: latency under Pareto (power-law) event arrival. Paper: Cameo's
// latency timeline is far more stable than Orleans' and FIFO's; it reduces
// (median, p99) latency by (3.9x, 29.7x) vs Orleans and (1.3x, 21.1x) vs
// FIFO, with 23.2x / 12.7x lower standard deviation; transient bursts under
// FIFO spill across collocated jobs.
#include <algorithm>
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

RunResult RunPareto(const bench::BenchContext& ctx, SchedulerKind kind) {
  MultiTenantOptions opt;
  opt.engine.scheduler = kind;
  opt.engine.workers = 4;
  opt.duration = ctx.Dur(Seconds(120), Seconds(8));
  opt.ls_jobs = 4;
  opt.ba_jobs = 8;
  opt.ba_arrivals = ArrivalKind::kPareto;
  opt.pareto_alpha = 1.4;
  opt.ba_msgs_per_sec = 18;  // mean ~75% utilization, bursts overload
  return RunMultiTenant(opt);
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 9", "latency under Pareto event arrival",
      "Cameo's LS latency stays stable through bursts; baselines spike by "
      "orders of magnitude and have 10-20x higher stdev");
  struct Row {
    std::string name;
    RunResult r;
  };
  std::vector<Row> rows;
  for (SchedulerKind kind : {SchedulerKind::kOrleans, SchedulerKind::kFifo,
                             SchedulerKind::kCameo}) {
    rows.push_back({ToString(kind), RunPareto(ctx, kind)});
  }

  PrintHeaderRow("scheduler", {"grp", "median", "p99", "stdev", "max"});
  for (const Row& row : rows) {
    for (const char* grp : {"LS", "BA"}) {
      double sd = 0, mx = 0;
      for (const auto& j : row.r.jobs) {
        if (j.name.rfind(grp, 0) != 0) continue;
        sd = std::max(sd, j.stdev_ms);
        mx = std::max(mx, j.max_ms);
      }
      PrintRow(row.name, {grp, FormatMs(row.r.GroupPercentile(grp, 50)),
                          FormatMs(row.r.GroupPercentile(grp, 99)),
                          FormatMs(sd), FormatMs(mx)});
    }
  }

  // Ratios the paper headlines (Group 1).
  auto find = [&](const std::string& n) -> const RunResult& {
    for (const Row& r : rows) {
      if (r.name == n) return r.r;
    }
    return rows[0].r;
  };
  const RunResult& cameo = find("Cameo");
  const RunResult& orleans = find("Orleans");
  const RunResult& fifo = find("FIFO");
  std::printf(
      "\nLS ratios vs Cameo -- Orleans: median %.1fx p99 %.1fx | FIFO: "
      "median %.1fx p99 %.1fx\n",
      orleans.GroupPercentile("LS", 50) / cameo.GroupPercentile("LS", 50),
      orleans.GroupPercentile("LS", 99) / cameo.GroupPercentile("LS", 99),
      fifo.GroupPercentile("LS", 50) / cameo.GroupPercentile("LS", 50),
      fifo.GroupPercentile("LS", 99) / cameo.GroupPercentile("LS", 99));
  for (const Row& row : rows) {
    ctx.Metric(row.name + ".LS_median_ms", row.r.GroupPercentile("LS", 50));
    ctx.Metric(row.name + ".LS_p99_ms", row.r.GroupPercentile("LS", 99));
  }
  ctx.Metric("orleans_over_cameo.LS_p99",
             orleans.GroupPercentile("LS", 99) /
                 cameo.GroupPercentile("LS", 99));
  ctx.Metric("fifo_over_cameo.LS_p99",
             fifo.GroupPercentile("LS", 99) / cameo.GroupPercentile("LS", 99));
}

CAMEO_BENCH_REGISTER("fig09_pareto", "Figure 9",
                     "latency stability under Pareto (bursty) arrivals",
                     Run);

}  // namespace
}  // namespace cameo
