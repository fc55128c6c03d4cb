// Figure 8(c): effect of shrinking the worker pool. Paper: Cameo maintains
// Group-1 performance down to 2 workers and still meets ~90% of deadlines
// at 1 worker, while back-pressuring the lax Group-2 jobs (lower BA
// throughput); Orleans and FIFO degrade both groups, Group 1 worst.
//
// The second panel is wall-clock: the real ThreadRuntime drains a fixed
// backlog at 1..8 workers. With the sharded control plane (lock-free
// mailboxes + detached ready queues) throughput must scale monotonically
// with the worker count instead of flatlining on a global dispatch lock;
// per-message cost is sleep-dominated so the sweep is meaningful even on
// small CI machines.
#include <chrono>
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "runtime/thread_runtime.h"

namespace cameo {
namespace {

/// Wall-clock scaling: K independent source->sink pipelines, per-message
/// cost ~4 ms (sleep-dominated), fixed pre-loaded backlog, measure Drain().
void RuntimeScalingPanel(bench::BenchContext& ctx) {
  std::printf(
      "\n=== Figure 8(c) wall-clock panel: ThreadRuntime scaling ===\n");
  std::printf("%-12s %16s %16s\n", "workers", "drain_ms", "msgs_per_sec");
  const int kJobs = 16;
  const int kMsgsPerJob = ctx.smoke ? 15 : 60;
  for (int workers : {1, 2, 4, 8}) {
    DataflowGraph graph;
    std::vector<OperatorId> sources;
    for (int j = 0; j < kJobs; ++j) {
      JobSpec spec;
      spec.name = "scale" + std::to_string(j);
      spec.latency_constraint = Seconds(60);
      spec.output_slide = 0;
      JobId job = graph.AddJob(spec);
      StageId src = graph.AddStage(job, "src", 1, [](int) {
        return std::make_unique<SourceOp>("src",
                                          CostModel{Millis(4), 0, 0});
      });
      StageId sink = graph.AddStage(job, "sink", 1, [](int) {
        return std::make_unique<SinkOp>("sink", CostModel{});
      });
      graph.Connect(src, sink, Partition::kOneToOne);
      sources.push_back(graph.stage(src).operators[0]);
    }
    RuntimeConfig cfg;
    cfg.num_workers = workers;
    cfg.emulate_cost = true;  // 4 ms sleep-dominated cost per source message
    ThreadRuntime rt(cfg, std::move(graph));
    for (int k = 0; k < kMsgsPerJob; ++k) {
      for (OperatorId src : sources) rt.Ingest(src, 1, k + 1);
    }
    const auto t0 = std::chrono::steady_clock::now();
    rt.Start();
    rt.Drain();
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rt.Stop();
    const double total = static_cast<double>(kJobs) * kMsgsPerJob;
    std::printf("%-12d %16.1f %16.0f\n", workers, sec * 1e3, total / sec);
    const std::string key = "runtime_scaling.workers" + std::to_string(workers);
    ctx.Metric(key + ".msgs_per_sec", total / sec);
    ctx.Metric(key + ".drain_ms", sec * 1e3);
  }
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 8(c)", "latency and throughput vs worker threads",
      "Cameo protects Group 1 even at 1 worker (>=90% deadlines) at the "
      "cost of Group-2 throughput; baselines degrade Group 1 heavily");
  PrintHeaderRow("scheduler", {"workers", "LS_med", "LS_p99", "LS_met",
                               "BA_med", "BA_ktuple/s"});
  const std::vector<int> worker_counts =
      ctx.smoke ? std::vector<int>{4, 1} : std::vector<int>{8, 4, 2, 1};
  for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kOrleans,
                             SchedulerKind::kFifo}) {
    for (int workers : worker_counts) {
      MultiTenantOptions opt;
      opt.engine.scheduler = kind;
      opt.engine.workers = workers;
      opt.duration = ctx.Dur(Seconds(60));
      opt.ls_jobs = 4;
      opt.ba_jobs = 8;
      opt.ba_msgs_per_sec = 10;  // ~1.7 workers of offered load
      RunResult r = RunMultiTenant(opt);
      char tp[32];
      std::snprintf(tp, sizeof(tp), "%.0f",
                    r.GroupThroughput("BA") / 1000.0);
      PrintRow(ToString(kind),
               {std::to_string(workers),
                FormatMs(r.GroupPercentile("LS", 50)),
                FormatMs(r.GroupPercentile("LS", 99)),
                FormatPct(r.GroupSuccessRate("LS")),
                FormatMs(r.GroupPercentile("BA", 50)), tp});
      const std::string key =
          ToString(kind) + ".workers" + std::to_string(workers);
      ctx.Metric(key + ".LS_p99_ms", r.GroupPercentile("LS", 99));
      ctx.Metric(key + ".LS_success", r.GroupSuccessRate("LS"));
      ctx.Metric(key + ".BA_tuples_per_sec", r.GroupThroughput("BA"));
    }
  }
  RuntimeScalingPanel(ctx);
}

CAMEO_BENCH_REGISTER("fig08c_threads", "Figure 8(c)",
                     "latency and throughput vs worker thread count",
                     Run);

}  // namespace
}  // namespace cameo
