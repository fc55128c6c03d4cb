// Figure 14: effect of the re-scheduling quantum (§5.2), under the skewed
// Fig. 10 workload. Left: all jobs trigger on the same stream progress
// (clustered); right: jobs trigger on interleaved progress. Paper: with
// clustered triggers, the finest granularity suffers from frequent context
// switches (longer tail), while a very large quantum (100 ms) hurts by
// blocking high-priority messages behind low-priority operators.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void RunSide(bench::BenchContext& ctx, const char* side, const char* title,
             Duration interleave) {
  std::printf("\n--- %s ---\n", title);
  PrintHeaderRow("quantum", {"LS_med", "LS_p99", "LS_met", "swaps"});
  for (Duration quantum : {Duration{0}, Millis(1), Millis(10), Millis(100)}) {
    MultiTenantOptions opt;
    opt.engine.scheduler = SchedulerKind::kCameo;
    opt.engine.sched.quantum = quantum;
    opt.engine.workers = 4;
    opt.duration = ctx.Dur(Seconds(60));
    opt.ls_jobs = 6;
    opt.ba_jobs = 6;
    // Many small messages (~0.6 ms each) with a realistic activation-swap
    // cost: the finest granularity pays one switch per message, while a
    // moderate quantum amortizes it; a 100 ms quantum instead blocks urgent
    // work behind a draining operator.
    opt.ba_msgs_per_sec = 110;
    opt.ba_tuples_per_msg = 200;
    opt.engine.sim.switch_cost = Micros(200);
    opt.interleave_step = interleave;
    RunResult r = RunMultiTenant(opt);
    std::string label = quantum == 0 ? "finest" : FormatMs(ToMillis(quantum));
    PrintRow(label, {FormatMs(r.GroupPercentile("LS", 50)),
                     FormatMs(r.GroupPercentile("LS", 99)),
                     FormatPct(r.GroupSuccessRate("LS")),
                     std::to_string(r.sched.operator_swaps)});
    const std::string key = std::string(side) + ".q" +
                            (quantum == 0 ? "finest"
                                          : std::to_string(quantum /
                                                           kMillisecond) +
                                                "ms");
    ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
    ctx.Metric(key + ".swaps",
               static_cast<double>(r.sched.operator_swaps));
  }
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 14", "effect of the re-scheduling quantum",
      "clustered triggers: finest quantum pays context-switch overhead in "
      "the tail; 100 ms quantum causes head-of-line blocking; ~1-10 ms is "
      "the sweet spot");
  RunSide(ctx, "clustered",
          "left: clustered stream progress (all jobs aligned)", 0);
  RunSide(ctx, "interleaved",
          "right: interleaved stream progress (staggered boundaries)",
          Millis(125));
}

CAMEO_BENCH_REGISTER("fig14_quantum", "Figure 14",
                     "effect of the re-scheduling quantum",
                     Run);

}  // namespace
}  // namespace cameo
