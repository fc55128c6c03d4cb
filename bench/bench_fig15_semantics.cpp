// Figure 15: value of query-semantics awareness. Cameo without query
// semantics still knows the DAG and latency constraints but cannot extend
// deadlines to window boundaries (t_MF falls back to t_M). Paper: ~19%
// higher Group-2 median without semantics, but still up to 38% / 22% better
// (Group 1 / Group 2 medians) than the baselines.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 15", "benefit of query-semantics awareness",
      "Cameo w/o semantics slightly worse than full Cameo, still beats "
      "Orleans and FIFO");
  struct Config {
    const char* label;
    SchedulerKind kind;
    bool semantics;
  };
  const Config configs[] = {
      {"Cameo", SchedulerKind::kCameo, true},
      {"Cameo w/o semantics", SchedulerKind::kCameo, false},
      {"FIFO", SchedulerKind::kFifo, true},
      {"Orleans", SchedulerKind::kOrleans, true},
  };
  PrintHeaderRow("config", {"LS_med", "LS_p99", "BA_med", "BA_p99"});
  for (const Config& c : configs) {
    MultiTenantOptions opt;
    opt.engine.scheduler = c.kind;
    opt.engine.use_query_semantics = c.semantics;
    opt.engine.workers = 4;
    opt.duration = ctx.Dur(Seconds(60));
    opt.ls_jobs = 4;
    opt.ba_jobs = 8;
    opt.ba_msgs_per_sec = 28;  // busy but below saturation (paper's regime)
    // The regime where semantics matter: BA messages arrive mid-window
    // (Poisson, not boundary-aligned) under a moderate constraint. Without
    // TRANSFORM's deadline extension they look falsely urgent (ddl = t + L)
    // and steal capacity from the latency-sensitive group, even though their
    // output is only due at the 10 s window boundary.
    opt.ba_arrivals = ArrivalKind::kPoisson;
    opt.ba_constraint = Seconds(5);
    RunResult r = RunMultiTenant(opt);
    PrintRow(c.label, {FormatMs(r.GroupPercentile("LS", 50)),
                       FormatMs(r.GroupPercentile("LS", 99)),
                       FormatMs(r.GroupPercentile("BA", 50)),
                       FormatMs(r.GroupPercentile("BA", 99))});
    const std::string key(c.label);
    ctx.Metric(key + ".LS_median_ms", r.GroupPercentile("LS", 50));
    ctx.Metric(key + ".BA_median_ms", r.GroupPercentile("BA", 50));
  }
}

CAMEO_BENCH_REGISTER("fig15_semantics", "Figure 15",
                     "value of query-semantics awareness",
                     Run);

}  // namespace
}  // namespace cameo
