// End-to-end smoke: a single windowed-aggregation job on the simulated
// cluster produces outputs with sane latencies under every scheduler.
#include <gtest/gtest.h>

#include "bench_util/scenarios.h"
#include "sim/cluster.h"
#include "sim/driver.h"
#include "workload/tenants.h"

namespace cameo {
namespace {

TEST(SmokeTest, SingleJobProducesWindows) {
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 4;
  spec.aggs = 2;
  JobHandles h = BuildAggregationJob(graph, spec);

  EngineOptions cfg;
  cfg.workers = 2;
  Cluster cluster(cfg, std::move(graph));
  cluster.AddIngestion(h.source, [](int) {
    return std::make_unique<ConstantRate>(1.0, 1000, 0, Seconds(20));
  });
  cluster.Run(Seconds(20));

  // ~20 windows of 1 s each; the trailing ones may not have flushed.
  EXPECT_GE(cluster.latency().outputs(h.job), 10u);
  const SampleStats& lat = cluster.latency().Latency(h.job);
  ASSERT_FALSE(lat.empty());
  // Latency must be positive and below a few seconds at this trivial load.
  EXPECT_GT(lat.Min(), 0);
  EXPECT_LT(lat.Percentile(99), static_cast<double>(Seconds(5)));
}

TEST(SmokeTest, AllSchedulersRun) {
  for (SchedulerKind kind :
       {SchedulerKind::kCameo, SchedulerKind::kFifo, SchedulerKind::kOrleans,
        SchedulerKind::kSlot}) {
    MultiTenantOptions opt;
    opt.ls_jobs = 1;
    opt.ba_jobs = 1;
    opt.engine.workers = 2;
    opt.duration = Seconds(15);
    opt.sources_per_job = 2;
    opt.aggs_per_job = 2;
    opt.engine.scheduler = kind;
    RunResult r = RunMultiTenant(opt);
    EXPECT_EQ(r.jobs.size(), 2u) << ToString(kind);
    EXPECT_GT(r.jobs[0].outputs, 0u) << ToString(kind);
    EXPECT_GT(r.messages, 0u) << ToString(kind);
  }
}

}  // namespace
}  // namespace cameo
