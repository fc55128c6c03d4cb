// Ablation studies for Cameo's design choices (DESIGN.md §5):
//  1. Cold-start seeding: static critical-path priors vs learning from zero.
//  2. Starvation guard (§6.3): capped vs uncapped waiting under overload.
//  3. Reply-context feedback: live profiling vs frozen (seed-only) costs.
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"

namespace cameo {
namespace {

void SeedingAblation(bench::BenchContext& ctx) {
  PrintFigureBanner("Ablation A", "cold-start cost seeding",
                    "static priors mainly help the first windows; steady "
                    "state converges either way");
  PrintHeaderRow("config", {"LS_med", "LS_p99", "LS_max"});
  const SimTime duration = ctx.Dur(Seconds(60));
  for (bool seeded : {true, false}) {
    DataflowGraph graph;
    std::vector<JobHandles> handles;
    for (int i = 0; i < 4; ++i) {
      QuerySpec spec = MakeLatencySensitiveSpec("LS" + std::to_string(i));
      handles.push_back(BuildAggregationJob(graph, spec));
    }
    EngineOptions cfg;
    cfg.workers = 2;
    cfg.sim.seed_static_estimates = seeded;
    Cluster cluster(cfg, std::move(graph));
    for (auto& h : handles) {
      cluster.AddIngestion(h.source, [duration](int r) {
        return std::make_unique<ConstantRate>(1.0, 1000, 0, duration,
                                              Millis(2 + 3 * r), true);
      });
    }
    cluster.Run(duration);
    RunResult r = SummarizeRun(cluster, duration);
    double mx = 0;
    for (const auto& j : r.jobs) mx = std::max(mx, j.max_ms);
    PrintRow(seeded ? "seeded priors" : "cold start",
             {FormatMs(r.GroupPercentile("LS", 50)),
              FormatMs(r.GroupPercentile("LS", 99)), FormatMs(mx)});
    const std::string key = seeded ? "seeded" : "cold_start";
    ctx.Metric(key + ".LS_median_ms", r.GroupPercentile("LS", 50));
    ctx.Metric(key + ".LS_max_ms", mx);
  }
}

void StarvationAblation(bench::BenchContext& ctx) {
  PrintFigureBanner("Ablation B", "starvation guard under overload (§6.3)",
                    "the guard trades a little LS tail for bounded BA "
                    "waiting when the cluster is past capacity");
  PrintHeaderRow("starvation_limit",
                 {"LS_p99", "LS_met", "BA_med", "BA_max"});
  const SimTime kDuration = ctx.Dur(Seconds(60));
  // Guard limits scale with the run so the capped configurations still bind
  // in smoke mode.
  for (Duration limit : {kTimeMax, kDuration / 2, kDuration / 12}) {
    const int kLsJobs = 4, kBaJobs = 8, kWorkers = 4;
    const double kBaRate = 45;  // past saturation: something must starve

    DataflowGraph graph;
    std::vector<JobHandles> handles;
    for (int i = 0; i < kLsJobs; ++i) {
      QuerySpec spec = MakeLatencySensitiveSpec("LS" + std::to_string(i));
      handles.push_back(BuildAggregationJob(graph, spec));
    }
    for (int i = 0; i < kBaJobs; ++i) {
      QuerySpec spec = MakeBulkAnalyticsSpec("BA" + std::to_string(i));
      spec.msgs_per_sec_per_source = kBaRate;
      handles.push_back(BuildAggregationJob(graph, spec));
    }
    EngineOptions cfg;
    cfg.workers = kWorkers;
    cfg.sched.starvation_limit = limit;
    Cluster cluster(cfg, std::move(graph));
    for (std::size_t i = 0; i < handles.size(); ++i) {
      double rate = i < static_cast<std::size_t>(kLsJobs) ? 1.0 : kBaRate;
      cluster.AddIngestion(handles[i].source, [rate, kDuration](int r) {
        return std::make_unique<ConstantRate>(rate, 1000, 0, kDuration,
                                              Millis(2 + 3 * r), true);
      });
    }
    cluster.Run(kDuration);
    RunResult r = SummarizeRun(cluster, kDuration);
    double ba_max = 0;
    for (const auto& j : r.jobs) {
      if (j.name.rfind("BA", 0) == 0) ba_max = std::max(ba_max, j.max_ms);
    }
    std::string label =
        limit == kTimeMax ? "off (paper default)" : FormatMs(ToMillis(limit));
    PrintRow(label, {FormatMs(r.GroupPercentile("LS", 99)),
                     FormatPct(r.GroupSuccessRate("LS")),
                     FormatMs(r.GroupPercentile("BA", 50)), FormatMs(ba_max)});
    const std::string key =
        limit == kTimeMax ? "guard_off" : "guard_" + label;
    ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
    ctx.Metric(key + ".BA_max_ms", ba_max);
  }
}

void FeedbackAblation(bench::BenchContext& ctx) {
  PrintFigureBanner("Ablation C", "reply-context feedback",
                    "live RC profiling vs frozen estimates: feedback matters "
                    "when costs drift from the priors");
  PrintHeaderRow("config", {"LS_med", "LS_p99"});
  for (Duration sigma : {Duration{0}, Millis(500)}) {
    // Perturbation stands in for drift between priors and reality; with
    // feedback the EWMA keeps tracking ground truth regardless.
    MultiTenantOptions opt;
    opt.engine.scheduler = SchedulerKind::kCameo;
    opt.engine.workers = 4;
    opt.duration = ctx.Dur(Seconds(60));
    opt.ls_jobs = 4;
    opt.ba_jobs = 8;
    opt.ba_msgs_per_sec = 30;
    opt.engine.sim.profiler_perturbation = sigma;
    RunResult r = RunMultiTenant(opt);
    PrintRow(sigma == 0 ? "accurate estimates" : "drifted estimates (0.5s)",
             {FormatMs(r.GroupPercentile("LS", 50)),
              FormatMs(r.GroupPercentile("LS", 99))});
    const std::string key = sigma == 0 ? "accurate" : "drifted";
    ctx.Metric(key + ".LS_median_ms", r.GroupPercentile("LS", 50));
    ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
  }
}

void Run(bench::BenchContext& ctx) {
  SeedingAblation(ctx);
  StarvationAblation(ctx);
  FeedbackAblation(ctx);
}

CAMEO_BENCH_REGISTER("ablation", "Ablations A-C",
                     "cost seeding, starvation guard, reply-context feedback",
                     Run);

}  // namespace
}  // namespace cameo
