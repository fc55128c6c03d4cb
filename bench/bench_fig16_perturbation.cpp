// Figure 16: robustness to cost-profiling inaccuracy. Measured operator
// costs are perturbed by N(0, sigma) when read for priority generation.
// Paper: stable at the median for sigma up to the window size (1 s); the
// 90th percentile rises only ~55% at sigma = 1 s; robust when sigma <=
// 100 ms.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 16", "effect of profiling inaccuracy (N(0, sigma) on C_oM)",
      "median stable across sigma; tail degrades modestly near sigma = "
      "window size");
  PrintHeaderRow("sigma", {"grp", "median", "p90", "p99", "met"});
  for (Duration sigma : {Duration{0}, Millis(1), Millis(100), Millis(1000)}) {
    MultiTenantOptions opt;
    opt.engine.scheduler = SchedulerKind::kCameo;
    opt.engine.sim.profiler_perturbation = sigma;
    opt.engine.workers = 4;
    opt.duration = ctx.Dur(Seconds(60));
    opt.ls_jobs = 4;
    opt.ba_jobs = 8;
    opt.ba_msgs_per_sec = 35;
    RunResult r = RunMultiTenant(opt);
    std::string label = sigma == 0 ? "0" : FormatMs(ToMillis(sigma));
    for (const char* grp : {"LS", "BA"}) {
      PrintRow(label, {grp, FormatMs(r.GroupPercentile(grp, 50)),
                       FormatMs(r.GroupPercentile(grp, 90)),
                       FormatMs(r.GroupPercentile(grp, 99)),
                       FormatPct(r.GroupSuccessRate(grp))});
      const std::string key = "sigma" +
                              std::to_string(sigma / kMillisecond) + "ms." +
                              grp;
      ctx.Metric(key + ".median_ms", r.GroupPercentile(grp, 50));
      ctx.Metric(key + ".p90_ms", r.GroupPercentile(grp, 90));
    }
  }
}

CAMEO_BENCH_REGISTER("fig16_perturbation", "Figure 16",
                     "robustness to cost-profiling inaccuracy",
                     Run);

}  // namespace
}  // namespace cameo
