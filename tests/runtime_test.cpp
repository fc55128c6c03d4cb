// Tests for the wall-clock thread runtime: the same pipeline code running on
// real threads produces correct results and sane latencies.
#include <gtest/gtest.h>

#include "ops/sink.h"
#include "runtime/thread_runtime.h"
#include "workload/tenants.h"

namespace cameo {
namespace {

RuntimeConfig FastConfig() {
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.emulate_cost = false;  // CI-friendly: no spinning
  return cfg;
}

TEST(ThreadRuntimeTest, ProcessesWindowsEndToEnd) {
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 2;
  spec.aggs = 2;
  spec.domain = TimeDomain::kEventTime;
  JobHandles h = BuildAggregationJob(graph, spec);
  std::vector<OperatorId> sources = graph.stage(h.source).operators;

  ThreadRuntime rt(FastConfig(), std::move(graph));
  rt.Start();
  // Three logical seconds of data from both sources; boundary batches close
  // each window.
  for (int k = 1; k <= 3; ++k) {
    for (OperatorId src : sources) {
      rt.Ingest(src, /*tuples=*/100, /*p=*/Seconds(k));
    }
  }
  rt.Drain();
  rt.Stop();
  // Windows 1s and 2s must have flushed (3s lacks a closing batch).
  EXPECT_GE(rt.latency().outputs(h.job), 2u);
}

TEST(ThreadRuntimeTest, ColumnarResultsAreCorrect) {
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 1;
  spec.aggs = 1;
  spec.domain = TimeDomain::kEventTime;
  JobHandles h = BuildAggregationJob(graph, spec);
  OperatorId src = graph.stage(h.source).operators[0];
  OperatorId sink_op = graph.stage(h.sink).operators[0];

  ThreadRuntime rt(FastConfig(), std::move(graph));
  rt.Start();
  EventBatch b1;
  b1.progress = Millis(500);
  b1.Append(1, 10.0, Millis(400));
  b1.Append(2, 32.0, Millis(450));
  rt.IngestBatch(src, std::move(b1));
  EventBatch b2;
  b2.progress = Seconds(1);  // closes window (0, 1s]
  b2.Append(3, 8.0, Seconds(1));
  rt.IngestBatch(src, std::move(b2));
  rt.Drain();
  rt.Stop();

  auto& sink = dynamic_cast<SinkOp&>(rt.graph().Get(sink_op));
  EXPECT_EQ(sink.outputs(), 1u);
  EXPECT_DOUBLE_EQ(sink.last_value(), 50.0) << "10 + 32 + 8";
}

TEST(ThreadRuntimeTest, EpochScaleEventTimesAreCorrect) {
  // Progress and event times in Unix-epoch nanoseconds, far above 2^53: the
  // event-time PROGRESSMAP fit sees them on every conversion.
  constexpr LogicalTime kEpochNs = 1'760'000'000'000'000'000;
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 1;
  spec.aggs = 1;
  spec.domain = TimeDomain::kEventTime;
  JobHandles h = BuildAggregationJob(graph, spec);
  OperatorId src = graph.stage(h.source).operators[0];
  OperatorId sink_op = graph.stage(h.sink).operators[0];

  ThreadRuntime rt(FastConfig(), std::move(graph));
  rt.Start();
  for (int k = 1; k <= 4; ++k) {
    const LogicalTime end = kEpochNs + Seconds(k);
    EventBatch mid;
    mid.progress = end - Millis(500);
    mid.Append(1, 10.0, end - Millis(600));
    ASSERT_TRUE(rt.IngestBatch(src, std::move(mid)));
    EventBatch boundary;
    boundary.progress = end;  // closes window (end - 1s, end]
    boundary.Append(2, static_cast<double>(k), end);
    ASSERT_TRUE(rt.IngestBatch(src, std::move(boundary)));
  }
  rt.Drain();
  rt.Stop();

  auto& sink = dynamic_cast<SinkOp&>(rt.graph().Get(sink_op));
  EXPECT_EQ(sink.outputs(), 4u);
  EXPECT_DOUBLE_EQ(sink.last_value(), 14.0) << "10 + 4";
}

TEST(ThreadRuntimeTest, DrainWaitsForDownstreamWork) {
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 4;
  spec.aggs = 2;
  spec.domain = TimeDomain::kEventTime;
  JobHandles h = BuildAggregationJob(graph, spec);
  std::vector<OperatorId> sources = graph.stage(h.source).operators;

  ThreadRuntime rt(FastConfig(), std::move(graph));
  rt.Start();
  for (int k = 1; k <= 10; ++k) {
    for (OperatorId src : sources) rt.Ingest(src, 1000, Seconds(k));
  }
  rt.Drain();
  // After Drain, nothing is pending and all windows <= 9s have flushed.
  EXPECT_EQ(rt.scheduler().pending(), 0u);
  EXPECT_GE(rt.latency().outputs(h.job), 9u);
  rt.Stop();
}

TEST(ThreadRuntimeTest, AllSchedulersDrainCleanly) {
  for (SchedulerKind sched :
       {SchedulerKind::kCameo, SchedulerKind::kFifo, SchedulerKind::kOrleans,
        SchedulerKind::kSlot}) {
    DataflowGraph graph;
    QuerySpec spec = MakeLatencySensitiveSpec("LS0");
    spec.sources = 2;
    spec.aggs = 2;
    spec.domain = TimeDomain::kEventTime;
    JobHandles h = BuildAggregationJob(graph, spec);
    std::vector<OperatorId> sources = graph.stage(h.source).operators;
    RuntimeConfig cfg = FastConfig();
    cfg.scheduler = sched;
    ThreadRuntime rt(cfg, std::move(graph));
    rt.Start();
    for (int k = 1; k <= 4; ++k) {
      for (OperatorId src : sources) rt.Ingest(src, 10, Seconds(k));
    }
    rt.Drain();
    rt.Stop();
    EXPECT_GE(rt.latency().outputs(h.job), 3u) << ToString(sched);
  }
}

TEST(ThreadRuntimeTest, StopIsIdempotentAndRestartable) {
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 1;
  spec.aggs = 1;
  BuildAggregationJob(graph, spec);
  ThreadRuntime rt(FastConfig(), std::move(graph));
  rt.Start();
  rt.Stop();
  rt.Stop();  // no-op
  rt.Start();
  rt.Stop();
}

TEST(ThreadRuntimeTest, ProfilerObservesRealDurations) {
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 1;
  spec.aggs = 1;
  spec.agg_cost = {Millis(3), 0, 0};
  spec.domain = TimeDomain::kEventTime;
  JobHandles h = BuildAggregationJob(graph, spec);
  OperatorId src = graph.stage(h.source).operators[0];
  OperatorId agg = graph.stage(h.stages[1]).operators[0];

  RuntimeConfig cfg = FastConfig();
  cfg.emulate_cost = true;  // spin for the modeled cost
  ThreadRuntime rt(cfg, std::move(graph));
  rt.Start();
  for (int k = 1; k <= 5; ++k) rt.Ingest(src, 10, Seconds(k));
  rt.Drain();
  rt.Stop();
  // The profiled cost must reflect the ~3 ms spin (loose bounds: CI jitter).
  EXPECT_GT(rt.profiler().Estimate(agg), Millis(2));
  EXPECT_LT(rt.profiler().Estimate(agg), Millis(60));
}

// ---- Query lifecycle (hot add/remove) ----

JobHandles BuildTenantHandles(DataflowGraph& g, const std::string& name) {
  QuerySpec spec = MakeLatencySensitiveSpec(name);
  spec.sources = 1;
  spec.aggs = 1;
  spec.domain = TimeDomain::kEventTime;
  return BuildAggregationJob(g, spec);
}

JobId BuildTenant(DataflowGraph& g, const std::string& name) {
  return BuildTenantHandles(g, name).job;
}

TEST(ThreadRuntimeTest, AddQueryServesTrafficImmediately) {
  DataflowGraph graph;
  BuildTenant(graph, "static");
  ThreadRuntime rt(FastConfig(), std::move(graph));
  rt.Start();

  JobId added = rt.AddQuery([](DataflowGraph& g) {
                     return BuildTenantHandles(g, "tenant");
                   }).job;
  EXPECT_TRUE(rt.QueryLive(added));
  OperatorId src = rt.graph().stage(rt.graph().stages_of(added)[0])
                       .operators[0];
  for (int k = 1; k <= 3; ++k) {
    EXPECT_TRUE(rt.Ingest(src, 100, Seconds(k)));
  }
  rt.Drain();
  rt.Stop();
  EXPECT_GE(rt.latency().outputs(added), 2u);
}

TEST(ThreadRuntimeTest, RemoveQueryExecutesBacklogThenRejects) {
  DataflowGraph graph;
  JobId keeper = BuildTenant(graph, "keeper");
  JobId doomed = BuildTenant(graph, "doomed");
  ThreadRuntime rt(FastConfig(), std::move(graph));
  OperatorId keeper_src =
      rt.graph().stage(rt.graph().stages_of(keeper)[0]).operators[0];
  OperatorId doomed_src =
      rt.graph().stage(rt.graph().stages_of(doomed)[0]).operators[0];
  rt.Start();
  for (int k = 1; k <= 3; ++k) {
    ASSERT_TRUE(rt.Ingest(keeper_src, 50, Seconds(k)));
    ASSERT_TRUE(rt.Ingest(doomed_src, 50, Seconds(k)));
  }
  rt.RemoveQuery(doomed);  // graceful: quiesces the backlog first
  EXPECT_FALSE(rt.QueryLive(doomed));
  EXPECT_GE(rt.latency().outputs(doomed), 2u) << "backlog must be executed";
  EXPECT_FALSE(rt.Ingest(doomed_src, 10, Seconds(9)));
  // The surviving tenant is untouched.
  EXPECT_TRUE(rt.QueryLive(keeper));
  EXPECT_TRUE(rt.Ingest(keeper_src, 50, Seconds(4)));
  rt.Drain();
  rt.Stop();
  SchedulerStats stats = rt.scheduler().stats();
  EXPECT_EQ(stats.enqueued, stats.dispatched);
  EXPECT_EQ(stats.purged, 0u);
  EXPECT_EQ(stats.rejected, 0u)
      << "a rejected ingest never reaches a mailbox";
}

TEST(ThreadRuntimeTest, SetWorkerCountGrowsMidRun) {
  for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kSlot,
                             SchedulerKind::kOrleans}) {
    DataflowGraph graph;
    JobId job = BuildTenant(graph, "elastic");
    RuntimeConfig cfg = FastConfig();
    cfg.scheduler = kind;
    cfg.num_workers = 1;
    ThreadRuntime rt(cfg, std::move(graph));
    OperatorId src =
        rt.graph().stage(rt.graph().stages_of(job)[0]).operators[0];
    rt.Start();
    EXPECT_EQ(rt.worker_count(), 1);
    for (int k = 1; k <= 4; ++k) ASSERT_TRUE(rt.Ingest(src, 50, Seconds(k)));
    rt.SetWorkerCount(4);
    EXPECT_EQ(rt.worker_count(), 4);
    for (int k = 5; k <= 8; ++k) ASSERT_TRUE(rt.Ingest(src, 50, Seconds(k)));
    rt.Drain();
    rt.Stop();
    EXPECT_GE(rt.latency().outputs(job), 7u) << ToString(kind);
    SchedulerStats stats = rt.scheduler().stats();
    EXPECT_EQ(stats.enqueued, stats.dispatched) << ToString(kind);
  }
}

TEST(ThreadRuntimeDeathTest, SetWorkerCountNeverShrinks) {
  // Fork-and-exec children: the second case forks after workers started.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RuntimeConfig cfg = FastConfig();
  cfg.num_workers = 2;
  {
    DataflowGraph graph;
    BuildTenant(graph, "unstarted");
    ThreadRuntime rt(cfg, std::move(graph));
    EXPECT_DEATH(rt.SetWorkerCount(1), "workers >= config_.num_workers");
  }
  {
    DataflowGraph graph;
    BuildTenant(graph, "started");
    ThreadRuntime rt(cfg, std::move(graph));
    rt.Start();
    rt.SetWorkerCount(3);
    EXPECT_DEATH(rt.SetWorkerCount(2), "workers >= config_.num_workers");
    EXPECT_EQ(rt.worker_count(), 3);
    rt.Stop();
  }
}

}  // namespace
}  // namespace cameo
