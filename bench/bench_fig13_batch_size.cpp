// Figure 13: effect of batch size. Two knobs, two panels.
//  Left: tuples per *message* grow while the overall tuple ingestion rate is
//        held constant. Paper: Group-1 latency is unaffected up to 20K
//        tuples/msg and degrades at 40K+, when large low-priority messages
//        block high-priority ones (non-preemptive execution).
//  Right: the claim-and-drain knob (SchedulerConfig::batch_size, plumbed
//        through the fluent EngineOptions): messages per worker activation.
//        Because Cameo re-checks the ready queue between a batch's messages,
//        latency-sensitive results should stay flat while the per-message
//        dispatch overhead is amortized.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 13", "effect of batch size at constant tuple rate",
      "LS latency flat up to ~20K tuples/msg, degrades beyond (head-of-line "
      "blocking by large non-preemptible messages)");
  const double kTuplesPerSec = 40000;  // per BA source
  PrintHeaderRow("batch", {"BA_msgs/s/src", "LS_med", "LS_p99", "LS_met"});
  const std::vector<std::int64_t> batches =
      ctx.smoke ? std::vector<std::int64_t>{1000, 80000}
                : std::vector<std::int64_t>{1000, 5000, 10000, 20000, 40000,
                                            80000};
  for (std::int64_t batch : batches) {
    MultiTenantOptions opt;
    opt.engine.scheduler = SchedulerKind::kCameo;
    opt.engine.workers = 4;
    opt.duration = ctx.Dur(Seconds(60));
    opt.ls_jobs = 4;
    opt.ba_jobs = 8;
    opt.ba_tuples_per_msg = batch;
    opt.ba_msgs_per_sec = kTuplesPerSec / static_cast<double>(batch);
    // A 100 ms target makes the head-of-line degradation visible as missed
    // deadlines once messages grow past ~20K tuples.
    opt.ls_constraint = Millis(100);
    RunResult r = RunMultiTenant(opt);
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.2f", opt.ba_msgs_per_sec);
    PrintRow(std::to_string(batch),
             {rate, FormatMs(r.GroupPercentile("LS", 50)),
              FormatMs(r.GroupPercentile("LS", 99)),
              FormatPct(r.GroupSuccessRate("LS"))});
    const std::string key = "batch" + std::to_string(batch);
    ctx.Metric(key + ".LS_median_ms", r.GroupPercentile("LS", 50));
    ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
    ctx.Metric(key + ".LS_success", r.GroupSuccessRate("LS"));
  }

  // Right panel: drain batch size at fixed message size, swept through the
  // scenario's embedded EngineOptions::sched.batch_size.
  std::printf("\n--- claim-and-drain batch (messages per activation) ---\n");
  PrintHeaderRow("drain", {"LS_med", "LS_p99", "LS_met"});
  const std::vector<int> drains =
      ctx.smoke ? std::vector<int>{1, 16} : std::vector<int>{1, 4, 16, 64};
  for (int drain : drains) {
    MultiTenantOptions opt;
    opt.engine.scheduler = SchedulerKind::kCameo;
    opt.engine.workers = 4;
    opt.duration = ctx.Dur(Seconds(60));
    opt.ls_jobs = 4;
    opt.ba_jobs = 8;
    opt.ba_tuples_per_msg = 1000;
    opt.ba_msgs_per_sec = kTuplesPerSec / 1000.0;
    opt.ls_constraint = Millis(100);
    opt.engine.sched.batch_size = drain;
    RunResult r = RunMultiTenant(opt);
    PrintRow(std::to_string(drain),
             {FormatMs(r.GroupPercentile("LS", 50)),
              FormatMs(r.GroupPercentile("LS", 99)),
              FormatPct(r.GroupSuccessRate("LS"))});
    const std::string key = "drain" + std::to_string(drain);
    ctx.Metric(key + ".LS_median_ms", r.GroupPercentile("LS", 50));
    ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
    ctx.Metric(key + ".LS_success", r.GroupSuccessRate("LS"));
  }
}

CAMEO_BENCH_REGISTER("fig13_batch_size", "Figure 13",
                     "effect of batch size at constant tuple rate",
                     Run);

}  // namespace
}  // namespace cameo
