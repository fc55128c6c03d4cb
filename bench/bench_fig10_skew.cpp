// Figure 10: spatial workload variation. Two workload distributions derived
// from the production trace shape: Type 1 has 2x the volume with mild skew;
// Type 2's per-source ingestion rate varies by 200x. Paper success rates:
// Orleans 0.2% / 1.5%, FIFO 7.9% / 9.5%, Cameo 21.3% / 45.5%.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 10", "spatial workload variation (200x source skew)",
      "Cameo sustains the highest deadline success rates; baselines collapse "
      "on the heavy type");
  PrintHeaderRow("scheduler", {"T1_success", "T2_success", "T1_med", "T2_med",
                               "T1_p99"});
  for (SchedulerKind kind : {SchedulerKind::kOrleans, SchedulerKind::kFifo,
                             SchedulerKind::kCameo}) {
    SkewScenarioOptions opt;
    opt.engine.scheduler = kind;
    opt.duration = ctx.Dur(Seconds(60));
    RunResult r = RunSkewedScenario(opt);
    PrintRow(ToString(kind),
             {FormatPct(r.GroupSuccessRate("T1-")),
              FormatPct(r.GroupSuccessRate("T2-")),
              FormatMs(r.GroupPercentile("T1-", 50)),
              FormatMs(r.GroupPercentile("T2-", 50)),
              FormatMs(r.GroupPercentile("T1-", 99))});
    ctx.Metric(ToString(kind) + ".T1_success", r.GroupSuccessRate("T1-"));
    ctx.Metric(ToString(kind) + ".T2_success", r.GroupSuccessRate("T2-"));
    ctx.Metric(ToString(kind) + ".T1_median_ms",
               r.GroupPercentile("T1-", 50));
  }
}

CAMEO_BENCH_REGISTER("fig10_skew", "Figure 10",
                     "spatial workload variation with 200x source skew",
                     Run);

}  // namespace
}  // namespace cameo
