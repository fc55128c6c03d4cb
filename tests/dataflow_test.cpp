// Unit tests for src/dataflow: event batches, graph construction, routing
// partitions (including routing under concurrent query splicing), and static
// critical-path analysis.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dataflow/critical_path.h"
#include "dataflow/event_batch.h"
#include "dataflow/graph.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/window_agg.h"
#include "state/slate_store.h"

namespace cameo {
namespace {

OperatorFactory SourceFactory(CostModel cost = {}) {
  return [cost](int) { return std::make_unique<SourceOp>("src", cost); };
}

OperatorFactory SinkFactory(CostModel cost = {}) {
  return [cost](int) { return std::make_unique<SinkOp>("sink", cost); };
}

OperatorFactory AggFactory(CostModel cost = {}) {
  return [cost](int) {
    return std::make_unique<WindowAggOp>("agg", WindowSpec::Tumbling(Seconds(1)),
                                         cost, AggKind::kSum);
  };
}

TEST(EventBatchTest, SyntheticCarriesCountAndProgress) {
  EventBatch b = EventBatch::Synthetic(500, Seconds(3));
  EXPECT_EQ(b.size(), 500);
  EXPECT_FALSE(b.columnar());
  EXPECT_EQ(b.progress, Seconds(3));
}

TEST(EventBatchTest, ColumnarSizeFromColumns) {
  EventBatch b;
  b.Append(1, 2.0, 10);
  b.Append(2, 3.0, 11);
  EXPECT_EQ(b.size(), 2);
  EXPECT_TRUE(b.columnar());
}

TEST(GraphTest, AddJobStageOperators) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j", .latency_constraint = Millis(100)});
  StageId s = g.AddStage(job, "src", 3, SourceFactory());
  EXPECT_EQ(g.stage(s).operators.size(), 3u);
  EXPECT_EQ(g.operator_count(), 3u);
  for (OperatorId op : g.stage(s).operators) {
    EXPECT_EQ(g.Get(op).job(), job);
    EXPECT_EQ(g.Get(op).stage(), s);
  }
  EXPECT_EQ(g.job(job).name, "j");
}

TEST(GraphTest, OperatorsOfReturnsAllStages) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  g.AddStage(job, "a", 2, SourceFactory());
  g.AddStage(job, "b", 3, SinkFactory());
  EXPECT_EQ(g.OperatorsOf(job).size(), 5u);
}

TEST(GraphTest, SinkStagesAreEdgeless) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 1, SinkFactory());
  g.Connect(a, b, Partition::kOneToOne);
  auto sinks = g.SinkStages(job);
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(sinks[0], b);
}

TEST(GraphTest, RouteOneToOneMatchesReplicaIndex) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 3, SourceFactory());
  StageId b = g.AddStage(job, "b", 3, SinkFactory());
  g.Connect(a, b, Partition::kOneToOne);
  OperatorId sender = g.stage(a).operators[1];
  auto out = g.Route(sender, 0, EventBatch::Synthetic(1, 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].target, g.stage(b).operators[1]);
}

TEST(GraphTest, RouteShardWrapsModulo) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 4, SourceFactory());
  StageId b = g.AddStage(job, "b", 2, SinkFactory());
  g.Connect(a, b, Partition::kShard);
  auto out2 = g.Route(g.stage(a).operators[2], 0, EventBatch::Synthetic(1, 1));
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].target, g.stage(b).operators[0]);  // 2 % 2
  auto out3 = g.Route(g.stage(a).operators[3], 0, EventBatch::Synthetic(1, 1));
  EXPECT_EQ(out3[0].target, g.stage(b).operators[1]);  // 3 % 2
}

TEST(GraphTest, RouteBroadcastReplicates) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 3, SinkFactory());
  g.Connect(a, b, Partition::kBroadcast);
  auto out = g.Route(g.stage(a).operators[0], 0, EventBatch::Synthetic(5, 1));
  EXPECT_EQ(out.size(), 3u);
  for (const auto& d : out) EXPECT_EQ(d.batch.size(), 5);
}

TEST(GraphTest, RouteRoundRobinRotates) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 2, SinkFactory());
  g.Connect(a, b, Partition::kRoundRobin);
  OperatorId sender = g.stage(a).operators[0];
  auto d0 = g.Route(sender, 0, EventBatch::Synthetic(1, 1));
  auto d1 = g.Route(sender, 0, EventBatch::Synthetic(1, 2));
  auto d2 = g.Route(sender, 0, EventBatch::Synthetic(1, 3));
  EXPECT_NE(d0[0].target, d1[0].target);
  EXPECT_EQ(d0[0].target, d2[0].target);
}

TEST(GraphTest, RouteKeyHashSplitsColumnarByKey) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 4, SinkFactory());
  g.Connect(a, b, Partition::kKeyHash);
  EventBatch batch;
  batch.progress = Seconds(1);
  for (std::int64_t k = 0; k < 100; ++k) batch.Append(k, 1.0, 10);
  auto out = g.Route(g.stage(a).operators[0], 0, std::move(batch));
  // Every replica receives a delivery: rows for the keys it owns, or a
  // progress-only batch, so keyed shards' watermarks always advance.
  ASSERT_EQ(out.size(), 4u);
  std::int64_t total = 0;
  std::size_t with_rows = 0;
  for (const auto& d : out) {
    EXPECT_EQ(d.batch.progress, Seconds(1)) << "progress preserved per split";
    if (!d.batch.columnar()) {
      EXPECT_EQ(d.batch.size(), 0) << "row-less delivery is progress-only";
      continue;
    }
    ++with_rows;
    total += d.batch.size();
    // Same key never lands on two replicas: verified by re-mixing.
    for (std::int64_t k : d.batch.keys) {
      EXPECT_EQ(KeyMix(k) % 4, KeyMix(d.batch.keys[0]) % 4);
    }
  }
  EXPECT_EQ(total, 100);
  EXPECT_GE(with_rows, 2u) << "100 keys should span several replicas";
}

TEST(GraphTest, RouteKeyHashSameKeySameReplica) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 4, SinkFactory());
  g.Connect(a, b, Partition::kKeyHash);
  OperatorId sender = g.stage(a).operators[0];
  EventBatch b1, b2;
  b1.Append(42, 1.0, 1);
  b2.Append(42, 2.0, 2);
  auto d1 = g.Route(sender, 0, std::move(b1));
  auto d2 = g.Route(sender, 0, std::move(b2));
  ASSERT_EQ(d1.size(), 4u);
  ASSERT_EQ(d2.size(), 4u);
  auto owner = [](const std::vector<DataflowGraph::Delivery>& ds) {
    for (const auto& d : ds) {
      if (d.batch.columnar()) return d.target;
    }
    ADD_FAILURE() << "no replica received the row";
    return OperatorId{};
  };
  EXPECT_EQ(owner(d1), owner(d2));
}

TEST(GraphTest, RouteKeyHashKeylessBroadcastsProgress) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 3, SinkFactory());
  g.Connect(a, b, Partition::kKeyHash);
  auto out =
      g.Route(g.stage(a).operators[0], 0, EventBatch::Synthetic(7, Seconds(2)));
  ASSERT_EQ(out.size(), 3u);
  std::int64_t synthetic = 0;
  for (const auto& d : out) {
    EXPECT_EQ(d.batch.progress, Seconds(2));
    synthetic += d.batch.synthetic_count;
  }
  // The synthetic tuple count lands exactly once (on key 0's owner).
  EXPECT_EQ(synthetic, 7);
}

TEST(GraphTest, RouteKeyHashHotSplitSpreadsHotKeyOnly) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 4, SinkFactory());
  g.Connect(a, b, Partition::kKeyHash, /*split=*/4);
  EventBatch batch;
  batch.progress = Seconds(1);
  // One scorching key (9000 of 10000 rows) plus a cold tail.
  for (int i = 0; i < 9000; ++i) batch.Append(7, 1.0, 10);
  for (std::int64_t k = 0; k < 1000; ++k) batch.Append(1000 + k, 1.0, 10);
  auto out = g.Route(g.stage(a).operators[0], 0, std::move(batch));
  ASSERT_EQ(out.size(), 4u);
  std::size_t replicas_with_hot = 0;
  std::int64_t hot_rows = 0;
  std::int64_t total = 0;
  for (const auto& d : out) {
    total += d.batch.size();
    bool has_hot = false;
    for (std::int64_t k : d.batch.keys) {
      if (k == 7) {
        has_hot = true;
        ++hot_rows;
      } else {
        // Cold keys still route exactly as the unsplit path would.
        EXPECT_EQ(KeyMix(k) % 4,
                  static_cast<std::uint64_t>(
                      &d - out.data()));
      }
    }
    if (has_hot) ++replicas_with_hot;
  }
  EXPECT_EQ(total, 10000);
  EXPECT_EQ(hot_rows, 9000);
  EXPECT_GE(replicas_with_hot, 2u)
      << "the hot key must spread across sub-routes";
}

TEST(GraphTest, MultiplePortsRouteIndependently) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 1, SinkFactory());
  StageId c = g.AddStage(job, "c", 1, SinkFactory());
  int p0 = g.Connect(a, b, Partition::kOneToOne);
  int p1 = g.Connect(a, c, Partition::kOneToOne);
  EXPECT_EQ(p0, 0);
  EXPECT_EQ(p1, 1);
  OperatorId sender = g.stage(a).operators[0];
  EXPECT_EQ(g.Route(sender, 0, EventBatch::Synthetic(1, 1))[0].target,
            g.stage(b).operators[0]);
  EXPECT_EQ(g.Route(sender, 1, EventBatch::Synthetic(1, 1))[0].target,
            g.stage(c).operators[0]);
}

TEST(GraphTest, MultipleJobsIsolated) {
  DataflowGraph g;
  JobId j1 = g.AddJob({.name = "a"});
  JobId j2 = g.AddJob({.name = "b"});
  g.AddStage(j1, "s", 2, SourceFactory());
  g.AddStage(j2, "s", 3, SourceFactory());
  EXPECT_EQ(g.OperatorsOf(j1).size(), 2u);
  EXPECT_EQ(g.OperatorsOf(j2).size(), 3u);
  EXPECT_EQ(g.job_count(), 2u);
}

// ---------------- Critical path ----------------

TEST(GraphTest, AddQuerySplicesAndRemoveQueryRetires) {
  DataflowGraph g;
  JobId first = g.AddJob({.name = "static"});
  StageId fsrc = g.AddStage(first, "src", 1, SourceFactory());
  StageId fsink = g.AddStage(first, "sink", 1, SinkFactory());
  g.Connect(fsrc, fsink, Partition::kOneToOne);

  JobId added = g.AddQuery([](DataflowGraph& gr) {
    JobId job = gr.AddJob({.name = "tenant"});
    StageId s = gr.AddStage(job, "src", 2, SourceFactory());
    StageId k = gr.AddStage(job, "sink", 1, SinkFactory());
    gr.Connect(s, k, Partition::kShard);
    return JobHandles{.job = job, .source = s, .sink = k, .stages = {},
                      .source_right = {}};
  }).job;
  EXPECT_EQ(g.job_count(), 2u);
  EXPECT_EQ(g.live_job_count(), 2u);
  EXPECT_TRUE(g.query_live(added));
  EXPECT_EQ(g.OperatorsOf(added).size(), 3u);
  EXPECT_EQ(g.job(added).name, "tenant");

  std::vector<OperatorId> retired_ops = g.RemoveQuery(added);
  EXPECT_EQ(retired_ops.size(), 3u);
  EXPECT_FALSE(g.query_live(added));
  EXPECT_TRUE(g.query_live(first));
  EXPECT_EQ(g.live_job_count(), 1u);
  // Ids stay stable and resolvable for in-flight stragglers and metrics.
  EXPECT_EQ(g.job_count(), 2u);
  for (OperatorId op : retired_ops) {
    EXPECT_TRUE(g.Contains(op));
    EXPECT_EQ(g.Get(op).job(), added);
  }
}

TEST(GraphTest, ReferencesSurviveLaterMutations) {
  // References handed out before a mutation must stay valid after it
  // (table entries never move).
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId s = g.AddStage(job, "src", 2, SourceFactory());
  const StageInfo& before = g.stage(s);
  const Operator& op_before = g.Get(before.operators[0]);
  for (int i = 0; i < 8; ++i) {
    g.AddQuery([&](DataflowGraph& gr) {
      JobId t = gr.AddJob({.name = "t"});
      StageId a = gr.AddStage(t, "src", 1, SourceFactory());
      StageId b = gr.AddStage(t, "sink", 1, SinkFactory());
      gr.Connect(a, b, Partition::kOneToOne);
      return JobHandles{.job = t, .source = a, .sink = b, .stages = {},
                        .source_right = {}};
    });
  }
  EXPECT_EQ(before.parallelism, 2);
  EXPECT_EQ(before.operators.size(), 2u);
  EXPECT_EQ(op_before.name(), "src");
  EXPECT_EQ(g.job_count(), 9u);
}

TEST(GraphTest, WorkersRouteLiveJobWhileQueriesSplice) {
  // Workers route, Get and stage() a live job while a control thread splices
  // 200 queries in: the live job's entries never change under them and the
  // growing tables never move them.
  DataflowGraph g;
  JobId live = g.AddJob({.name = "live"});
  StageId src = g.AddStage(live, "src", 1, SourceFactory());
  StageId agg = g.AddStage(live, "agg", 4, AggFactory());
  StageId sink = g.AddStage(live, "sink", 2, SinkFactory());
  g.Connect(src, agg, Partition::kKeyHash, /*split=*/2);
  g.Connect(agg, sink, Partition::kRoundRobin);
  const OperatorId sender = g.stage(src).operators[0];
  const OperatorId agg0 = g.stage(agg).operators[0];

  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> errors{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      std::vector<DataflowGraph::Delivery> out;
      std::int64_t round = 0;
      while (!done.load(std::memory_order_acquire) || round < 50) {
        EventBatch batch;
        batch.progress = ++round;
        for (std::int64_t i = 0; i < 64; ++i) {
          batch.Append(i % 4 == 0 ? 7 : w * 1000 + i, 1.0, round);
        }
        out.clear();
        g.Route(sender, 0, std::move(batch), out);
        std::int64_t rows = 0;
        for (const auto& d : out) {
          rows += d.batch.size();
          if (g.Get(d.target).stage() != agg) errors.fetch_add(1);
        }
        if (out.size() != 4 || rows != 64) errors.fetch_add(1);
        out.clear();
        g.Route(agg0, 0, EventBatch::Synthetic(1, round), out);
        if (out.size() != 1 || g.Get(out[0].target).stage() != sink) {
          errors.fetch_add(1);
        }
        const StageInfo& s = g.stage(agg);
        if (s.operators.size() != 4 || s.downstream.size() != 1 ||
            !g.query_live(live)) {
          errors.fetch_add(1);
        }
        if (round == 1) started.fetch_add(1);
      }
    });
  }
  while (started.load() < 3) std::this_thread::yield();
  for (int q = 0; q < 200; ++q) {
    g.AddQuery([](DataflowGraph& gr) {
      JobId t = gr.AddJob({.name = "t"});
      StageId a = gr.AddStage(t, "src", 2, SourceFactory());
      StageId b = gr.AddStage(t, "agg", 3, AggFactory());
      StageId c = gr.AddStage(t, "sink", 1, SinkFactory());
      gr.Connect(a, b, Partition::kKeyHash);
      gr.Connect(b, c, Partition::kShard);
      return JobHandles{.job = t, .source = a, .sink = c, .stages = {},
                        .source_right = {}};
    });
  }
  done.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(g.job_count(), 201u);
  EXPECT_EQ(g.operator_count(), 7u + 200u * 6u);
  EXPECT_EQ(g.OperatorsOf(JobId{200}).size(), 6u);
}

TEST(CriticalPathTest, LinearPipelineSumsDownstream) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory({Millis(1), 0}));
  StageId b = g.AddStage(job, "b", 1, AggFactory({Millis(2), 0}));
  StageId c = g.AddStage(job, "c", 1, SinkFactory({Millis(4), 0}));
  g.Connect(a, b, Partition::kOneToOne);
  g.Connect(b, c, Partition::kOneToOne);
  auto cp = ComputeCriticalPath(g, job, /*nominal_tuples=*/0);
  OperatorId oa = g.stage(a).operators[0];
  OperatorId ob = g.stage(b).operators[0];
  OperatorId oc = g.stage(c).operators[0];
  EXPECT_EQ(cp.cost.at(oa), Millis(1));
  EXPECT_EQ(cp.path_below.at(oa), Millis(6));  // b + c
  EXPECT_EQ(cp.path_below.at(ob), Millis(4));  // c
  EXPECT_EQ(cp.path_below.at(oc), 0);
}

TEST(CriticalPathTest, DiamondTakesMaxBranch) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory({Millis(1), 0}));
  StageId b1 = g.AddStage(job, "b1", 1, AggFactory({Millis(2), 0}));
  StageId b2 = g.AddStage(job, "b2", 1, AggFactory({Millis(7), 0}));
  StageId c = g.AddStage(job, "c", 1, SinkFactory({Millis(1), 0}));
  g.Connect(a, b1, Partition::kOneToOne);
  g.Connect(a, b2, Partition::kOneToOne);
  g.Connect(b1, c, Partition::kOneToOne);
  g.Connect(b2, c, Partition::kOneToOne);
  auto cp = ComputeCriticalPath(g, job, 0);
  OperatorId oa = g.stage(a).operators[0];
  EXPECT_EQ(cp.path_below.at(oa), Millis(8));  // max(2, 7) + 1
}

TEST(CriticalPathTest, NominalTuplesScalePerTupleCosts) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "j"});
  StageId a = g.AddStage(job, "a", 1, SourceFactory({0, 100}));  // 100ns/tuple
  StageId b = g.AddStage(job, "b", 1, SinkFactory({Millis(1), 0}));
  g.Connect(a, b, Partition::kOneToOne);
  auto cp = ComputeCriticalPath(g, job, 1000);
  EXPECT_EQ(cp.cost.at(g.stage(a).operators[0]), 100 * 1000);
}

TEST(CostModelTest, ExpectedAndSampledAgreeWithoutNoise) {
  CostModel c{Millis(1), 100, 0};
  Rng rng(1);
  EXPECT_EQ(c.Expected(50), Millis(1) + 5000);
  EXPECT_EQ(c.Sample(50, rng), Millis(1) + 5000);
}

TEST(CostModelTest, NoiseStaysReasonable) {
  CostModel c{Millis(1), 0, 0.1};
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    Duration d = c.Sample(0, rng);
    EXPECT_GT(d, Millis(1) / 2);
    EXPECT_LT(d, Millis(2));
  }
}

TEST(CostModelTest, CostNeverBelowOneNanosecond) {
  CostModel c{0, 0, 0.5};
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_GE(c.Sample(0, rng), 1);
}

}  // namespace
}  // namespace cameo
