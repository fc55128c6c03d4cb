// Figure 17 (beyond the paper): latency-SLO attainment under tenant churn.
// The paper's §2 workload analysis shows tenant streams joining and leaving
// continuously; this scenario replays a Poisson-arrival / Pareto-lifetime
// churn script of latency-sensitive tenants over a static bulk-analytics
// background and compares schedulers on the churned tenants' met-deadline
// fraction. Expectation: Cameo's deadline-aware ordering keeps short-lived
// tenants inside their constraint where FIFO/Orleans/Slot queue them behind
// the background bulk work.
#include <string>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 17", "SLO attainment under tenant churn (hot add/remove)",
      "Cameo keeps churned LS tenants' met-deadline fraction high under a "
      "BA background; FIFO-style baselines degrade");
  PrintHeaderRow("sched",
                 {"grp", "median", "p99", "met", "add", "del", "purged"});
  for (SchedulerKind kind :
       {SchedulerKind::kCameo, SchedulerKind::kFifo, SchedulerKind::kOrleans,
        SchedulerKind::kSlot}) {
    ChurnScenarioOptions opt;
    opt.engine.scheduler = kind;
    opt.engine.workers = 4;
    opt.background_ba_jobs = 2;
    // Heavy batches (~30 ms non-preemptible invocations) just past saturation:
    // the backlog stands on 12 agg operators, so FIFO's fair rotation alone
    // costs ~360 ms while Cameo jumps the tenants' window messages ahead.
    opt.ba_msgs_per_sec = 9;
    opt.ba_tuples_per_msg = 20000;
    opt.aggs_per_job = 6;
    opt.tenant_constraint = Millis(250);
    opt.duration = ctx.Dur(Seconds(120), Seconds(16));
    opt.churn.end = opt.duration;
    opt.churn.arrivals_per_sec = ctx.smoke ? 0.5 : 0.25;
    opt.churn.mean_lifetime = ctx.smoke ? Seconds(6) : Seconds(20);
    opt.churn.min_lifetime = Seconds(3);
    opt.churn.max_concurrent = 8;
    ChurnScenarioResult r = RunChurnScenario(opt);

    const std::string sched = ToString(kind);
    for (const char* grp : {"T", "BA"}) {
      PrintRow(sched,
               {grp, FormatMs(r.run.GroupPercentile(grp, 50)),
                FormatMs(r.run.GroupPercentile(grp, 99)),
                FormatPct(r.run.GroupSuccessRate(grp)),
                std::to_string(r.tenants_added),
                std::to_string(r.tenants_departed),
                std::to_string(r.messages_purged)});
      ctx.Metric(sched + "." + grp + ".median_ms",
                 r.run.GroupPercentile(grp, 50));
      ctx.Metric(sched + "." + grp + ".p99_ms",
                 r.run.GroupPercentile(grp, 99));
      ctx.Metric(sched + "." + grp + ".met", r.run.GroupSuccessRate(grp));
    }
    ctx.Metric(sched + ".tenants_added", r.tenants_added);
    ctx.Metric(sched + ".tenants_departed", r.tenants_departed);
    ctx.Metric(sched + ".messages_purged",
               static_cast<double>(r.messages_purged));
  }
}

CAMEO_BENCH_REGISTER("fig17_churn", "Figure 17",
                     "latency-SLO attainment under tenant hot add/remove",
                     Run);

}  // namespace
}  // namespace cameo
