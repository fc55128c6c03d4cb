// Figure 7: single-tenant experiments, queries IPQ1-IPQ4.
//  (a) median/p99 latency per query per scheduler. Paper: Cameo improves
//      median by up to 2.7x and tail by up to 3.2x; Orleans is competitive
//      on IPQ4 (locality-friendly heavy join).
//  (b) latency CDF for IPQ1.
//  (c) operator schedule timeline: Cameo separates windows cleanly; Orleans
//      and FIFO interleave next-window work before the current window done.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

SingleTenantResult RunOne(const bench::BenchContext& ctx, int ipq,
                          SchedulerKind kind, bool timeline = false) {
  SingleTenantOptions opt;
  opt.ipq = ipq;
  opt.engine.scheduler = kind;
  opt.engine.workers = 2;
  opt.duration = ctx.Dur(Seconds(80), Seconds(8));
  opt.engine.sim.enable_timeline = timeline;
  opt.engine.seed = 1000 + static_cast<std::uint64_t>(ipq) * 7;
  return RunSingleTenant(opt);
}

void LatencyTable(bench::BenchContext& ctx) {
  PrintFigureBanner("Figure 7(a)", "single-tenant query latency",
                    "Cameo improves median up to 2.7x and tail up to 3.2x; "
                    "Orleans nearly matches Cameo on IPQ4");
  PrintHeaderRow("query", {"scheduler", "median", "p95", "p99"});
  for (int ipq = 1; ipq <= 4; ++ipq) {
    for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kOrleans,
                               SchedulerKind::kFifo}) {
      SingleTenantResult r = RunOne(ctx, ipq, kind);
      const JobResult& j = r.run.jobs[0];
      PrintRow("IPQ" + std::to_string(ipq),
               {ToString(kind), FormatMs(j.median_ms), FormatMs(j.p95_ms),
                FormatMs(j.p99_ms)});
      const std::string key = "IPQ" + std::to_string(ipq) + "." +
                              ToString(kind);
      ctx.Metric(key + ".median_ms", j.median_ms);
      ctx.Metric(key + ".p99_ms", j.p99_ms);
    }
  }
}

void Cdf(bench::BenchContext& ctx) {
  PrintFigureBanner("Figure 7(b)", "latency CDF (IPQ1)",
                    "Orleans ~3x Cameo; FIFO matches Cameo's median but has "
                    "an Orleans-like tail");
  for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kOrleans,
                             SchedulerKind::kFifo}) {
    SingleTenantResult r = RunOne(ctx, 1, kind);
    PrintCdf(r.latency, ToString(kind), 10);
  }
}

void TimelineSample(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 7(c)", "operator schedule timeline (IPQ1, first 3 windows)",
      "Cameo separates windows cleanly; baselines interleave next-window "
      "messages before the current window finishes");
  for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kFifo}) {
    SingleTenantResult r = RunOne(ctx, 1, kind, /*timeline=*/true);
    std::printf("%s: time_ms stage window_boundary_s (first 40 dispatches "
                "after t=2s)\n",
                ToString(kind).c_str());
    int printed = 0;
    // Count inversions: a dispatch whose window boundary is *later* than a
    // pending earlier boundary indicates cross-window interleaving.
    std::int64_t max_boundary_seen = 0;
    int inversions = 0, considered = 0;
    for (const DispatchRecord& d : r.timeline) {
      if (d.time < Seconds(2)) continue;
      std::int64_t boundary = d.progress / kSecond;
      if (printed < 40) {
        std::printf("  %8.1f  stage%lld  w%lld\n", ToMillis(d.time),
                    static_cast<long long>(d.stage.value),
                    static_cast<long long>(boundary));
        ++printed;
      }
      ++considered;
      if (boundary < max_boundary_seen) ++inversions;
      max_boundary_seen = std::max(max_boundary_seen, boundary);
      if (considered > 2000) break;
    }
    std::printf("%s cross-window inversions: %d / %d dispatches\n\n",
                ToString(kind).c_str(), inversions, considered);
    ctx.Metric("timeline." + ToString(kind) + ".inversions", inversions);
  }
}

void Run(bench::BenchContext& ctx) {
  LatencyTable(ctx);
  Cdf(ctx);
  TimelineSample(ctx);
}

CAMEO_BENCH_REGISTER("fig07_single_tenant", "Figure 7",
                     "single-tenant IPQ1-IPQ4 latency, CDF and timeline",
                     Run);

}  // namespace
}  // namespace cameo
