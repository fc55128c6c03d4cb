// Figure 8(a): latency-sensitive (Group 1) jobs under competing bulk-
// analytics (Group 2) traffic, sweeping the BA jobs' per-source ingestion
// rate. Paper: all three strategies comparable at low rates; past the
// saturation point Orleans is worse than Cameo by up to 1.6x (median) /
// 1.5x (p99) and FIFO by up to 2x / 1.8x, while Cameo stays stable.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 8(a)", "LS latency vs Group-2 ingestion rate",
      "comparable until saturation; beyond it Orleans/FIFO degrade 1.5-2x "
      "at median and tail while Cameo stays stable");

  const double kTuplesPerMsg = 1000;
  PrintHeaderRow("scheduler", {"BA_ktuples/s/src", "LS_med", "LS_p99",
                               "BA_med", "BA_p99", "util"});
  const std::vector<double> rates =
      ctx.smoke ? std::vector<double>{10.0, 50.0}
                : std::vector<double>{10.0, 20.0, 30.0, 40.0, 50.0};
  for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kOrleans,
                             SchedulerKind::kFifo}) {
    for (double rate : rates) {
      MultiTenantOptions opt;
      opt.engine.scheduler = kind;
      opt.engine.workers = 4;
      opt.duration = ctx.Dur(Seconds(60));
      opt.ls_jobs = 4;
      opt.ba_jobs = 8;
      opt.ba_msgs_per_sec = rate;
      opt.ba_tuples_per_msg = static_cast<std::int64_t>(kTuplesPerMsg);
      RunResult r = RunMultiTenant(opt);
      char label[64];
      std::snprintf(label, sizeof(label), "%s", ToString(kind).c_str());
      char rate_col[32];
      std::snprintf(rate_col, sizeof(rate_col), "%.0f",
                    rate * kTuplesPerMsg / 1000);
      PrintRow(label, {rate_col, FormatMs(r.GroupPercentile("LS", 50)),
                       FormatMs(r.GroupPercentile("LS", 99)),
                       FormatMs(r.GroupPercentile("BA", 50)),
                       FormatMs(r.GroupPercentile("BA", 99)),
                       FormatPct(r.utilization)});
      const std::string key =
          ToString(kind) + ".rate" + std::to_string(static_cast<int>(rate));
      ctx.Metric(key + ".LS_median_ms", r.GroupPercentile("LS", 50));
      ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
      ctx.Metric(key + ".utilization", r.utilization);
    }
  }
}

CAMEO_BENCH_REGISTER("fig08a_ingest_rate", "Figure 8(a)",
                     "LS latency vs competing Group-2 ingestion rate",
                     Run);

}  // namespace
}  // namespace cameo
