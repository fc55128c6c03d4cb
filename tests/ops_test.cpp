// Unit tests for src/ops: windowed aggregation (tumbling, sliding, grouped),
// windowed join, stateless operators, source and sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ops/agg_kernels.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/stateless.h"
#include "ops/window_agg.h"
#include "ops/windowed_join.h"
#include "state/keyed_counter.h"

namespace cameo {
namespace {

struct CapturedOut {
  int port;
  EventBatch batch;
  SimTime event_time;
};

class TestEmitter final : public Emitter {
 public:
  void Emit(int port, EventBatch batch, SimTime event_time) override {
    outs.push_back({port, std::move(batch), event_time});
  }
  std::vector<CapturedOut> outs;
};

class OpsTest : public ::testing::Test {
 protected:
  InvokeContext Ctx(SimTime now = 0) {
    emitter_.outs.clear();
    return InvokeContext{now, &emitter_, &rng_};
  }

  Message ColumnarMsg(std::int64_t sender, LogicalTime progress,
                      std::vector<std::tuple<std::int64_t, double, LogicalTime>>
                          tuples,
                      SimTime event_time = 0) {
    Message m;
    m.id = MessageId{next_id_++};
    m.sender = OperatorId{sender};
    m.event_time = event_time;
    m.batch.progress = progress;
    for (auto& [k, v, t] : tuples) m.batch.Append(k, v, t);
    return m;
  }

  Message SyntheticMsg(std::int64_t sender, LogicalTime progress,
                       std::int64_t count, SimTime event_time = 0) {
    Message m;
    m.id = MessageId{next_id_++};
    m.sender = OperatorId{sender};
    m.event_time = event_time;
    m.batch = EventBatch::Synthetic(count, progress);
    return m;
  }

  TestEmitter emitter_;
  Rng rng_{1};
  std::int64_t next_id_ = 0;
};

// ---------------- SourceOp / SinkOp ----------------

TEST_F(OpsTest, SourceForwardsBatchUnchanged) {
  SourceOp src("s", {});
  auto ctx = Ctx();
  src.Invoke(SyntheticMsg(-1, Seconds(1), 500, Millis(7)), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_EQ(emitter_.outs[0].batch.size(), 500);
  EXPECT_EQ(emitter_.outs[0].batch.progress, Seconds(1));
  EXPECT_EQ(emitter_.outs[0].event_time, Millis(7));
  EXPECT_TRUE(src.is_source());
  EXPECT_FALSE(src.is_sink());
}

TEST_F(OpsTest, SinkCountsOutputsAndTuples) {
  SinkOp sink("k", {});
  auto ctx = Ctx();
  sink.Invoke(SyntheticMsg(0, 1, 10), ctx);
  sink.Invoke(SyntheticMsg(0, 2, 30), ctx);
  EXPECT_EQ(sink.outputs(), 2u);
  EXPECT_EQ(sink.tuples(), 40);
  EXPECT_TRUE(emitter_.outs.empty());
  EXPECT_TRUE(sink.is_sink());
}

// ---------------- Map / Filter ----------------

TEST_F(OpsTest, MapTransformsTuples) {
  MapOp map("m", {}, [](std::int64_t& k, double& v) {
    k += 1;
    v *= 2;
  });
  auto ctx = Ctx();
  map.Invoke(ColumnarMsg(0, 10, {{1, 2.0, 5}, {3, 4.0, 6}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  EXPECT_EQ(out.keys[0], 2);
  EXPECT_DOUBLE_EQ(out.values[0], 4.0);
  EXPECT_EQ(out.keys[1], 4);
  EXPECT_DOUBLE_EQ(out.values[1], 8.0);
  EXPECT_EQ(out.progress, 10);
}

TEST_F(OpsTest, FilterDropsNonMatchingTuples) {
  FilterOp filter("f", {}, [](std::int64_t k, double) { return k % 2 == 0; });
  auto ctx = Ctx();
  filter.Invoke(
      ColumnarMsg(0, 10, {{1, 1.0, 1}, {2, 2.0, 2}, {4, 4.0, 3}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  ASSERT_EQ(out.keys.size(), 2u);
  EXPECT_EQ(out.keys[0], 2);
  EXPECT_EQ(out.keys[1], 4);
}

TEST_F(OpsTest, FilterAlwaysPropagatesProgress) {
  // Even a fully-dropped batch must advance downstream watermarks.
  FilterOp filter("f", {}, [](std::int64_t, double) { return false; });
  auto ctx = Ctx();
  filter.Invoke(ColumnarMsg(0, Seconds(9), {{1, 1.0, 1}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_EQ(emitter_.outs[0].batch.progress, Seconds(9));
  EXPECT_EQ(emitter_.outs[0].batch.size(), 0);
}

TEST_F(OpsTest, FilterScalesSyntheticBySelectivity) {
  FilterOp filter("f", {}, [](std::int64_t, double) { return true; }, 0.25);
  auto ctx = Ctx();
  filter.Invoke(SyntheticMsg(0, 10, 1000), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_EQ(emitter_.outs[0].batch.size(), 250);
}

// ---------------- WindowAggOp: tumbling ----------------

TEST_F(OpsTest, TumblingWindowTriggersAtBoundary) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kSum);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 5, {{1, 2.0, 3}, {1, 3.0, 5}}), ctx);
  EXPECT_TRUE(emitter_.outs.empty()) << "window 10 still open at progress 5";
  agg.Invoke(ColumnarMsg(0, 10, {{1, 5.0, 10}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u) << "progress 10 closes window 10";
  const EventBatch& out = emitter_.outs[0].batch;
  EXPECT_EQ(out.progress, 10);
  ASSERT_EQ(out.values.size(), 1u);
  EXPECT_DOUBLE_EQ(out.values[0], 10.0) << "2 + 3 + 5, boundary inclusive";
}

TEST_F(OpsTest, BoundaryTupleBelongsToItsWindow) {
  // Inclusive-right: a tuple at exactly t=10 is in window (0, 10].
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kCount);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 10, {{1, 1.0, 10}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 1.0);
}

TEST_F(OpsTest, TumblingWindowsTriggerInOrder) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kCount);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 3, {{1, 1.0, 3}}), ctx);
  agg.Invoke(ColumnarMsg(0, 15, {{1, 1.0, 15}}), ctx);
  // Progress 30 closes windows 20 and 30 (20 is empty, emits nothing).
  agg.Invoke(ColumnarMsg(0, 30, {{1, 1.0, 25}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 3u);
  EXPECT_EQ(emitter_.outs[0].batch.progress, 10);
  EXPECT_EQ(emitter_.outs[1].batch.progress, 20);
  EXPECT_EQ(emitter_.outs[2].batch.progress, 30);
}

TEST_F(OpsTest, AggKindsComputeCorrectValues) {
  auto run = [&](AggKind kind) {
    WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, kind);
    auto ctx = Ctx();
    agg.Invoke(
        ColumnarMsg(0, 10, {{1, 4.0, 2}, {2, 7.0, 3}, {1, 1.0, 10}}), ctx);
    return emitter_.outs.at(0).batch.values.at(0);
  };
  EXPECT_DOUBLE_EQ(run(AggKind::kSum), 12.0);
  EXPECT_DOUBLE_EQ(run(AggKind::kCount), 3.0);
  EXPECT_DOUBLE_EQ(run(AggKind::kMax), 7.0);
}

TEST_F(OpsTest, PerKeyAggregationEmitsOneTuplePerKey) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kSum,
                  /*per_key=*/true);
  auto ctx = Ctx();
  agg.Invoke(
      ColumnarMsg(0, 10, {{1, 2.0, 1}, {2, 3.0, 2}, {1, 4.0, 10}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  ASSERT_EQ(out.keys.size(), 2u);
  double sum_k1 = 0, sum_k2 = 0;
  for (std::size_t i = 0; i < out.keys.size(); ++i) {
    (out.keys[i] == 1 ? sum_k1 : sum_k2) = out.values[i];
  }
  EXPECT_DOUBLE_EQ(sum_k1, 6.0);
  EXPECT_DOUBLE_EQ(sum_k2, 3.0);
}

TEST_F(OpsTest, SyntheticBatchesFoldByCount) {
  WindowAggOp agg("a", WindowSpec::Tumbling(Seconds(1)), {}, AggKind::kCount);
  auto ctx = Ctx();
  agg.Invoke(SyntheticMsg(0, Millis(400), 700), ctx);
  agg.Invoke(SyntheticMsg(0, Seconds(1), 300), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 1000.0);
}

TEST_F(OpsTest, EventTimePropagatedAsLastContributingArrival) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kSum);
  auto ctx = Ctx(Millis(99));
  agg.Invoke(ColumnarMsg(0, 4, {{1, 1.0, 4}}, /*event_time=*/Millis(3)), ctx);
  agg.Invoke(ColumnarMsg(0, 10, {{1, 1.0, 9}}, /*event_time=*/Millis(8)), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_EQ(emitter_.outs[0].event_time, Millis(8));
}

// ---------------- WindowAggOp: watermark across channels ----------------

TEST_F(OpsTest, WatermarkWaitsForAllExpectedChannels) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kCount);
  agg.SetChannels({100, 101});
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(/*sender=*/100, 10, {{1, 1.0, 5}}), ctx);
  EXPECT_TRUE(emitter_.outs.empty()) << "channel 101 has not reported";
  agg.Invoke(ColumnarMsg(/*sender=*/101, 10, {{1, 1.0, 7}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 2.0);
}

TEST_F(OpsTest, WatermarkIsMinimumAcrossChannels) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kCount);
  agg.SetChannels({100, 101});
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(100, 30, {{1, 1.0, 5}}), ctx);
  agg.Invoke(ColumnarMsg(101, 10, {{1, 1.0, 7}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u) << "only window 10 is complete";
  EXPECT_EQ(agg.watermark(), 10);
  agg.Invoke(ColumnarMsg(101, 30, {{1, 1.0, 28}}), ctx);
  // Watermark reaches 30: window 30 (tuple at 28) emits; the empty window 20
  // was never materialized and emits nothing.
  EXPECT_EQ(emitter_.outs.size(), 2u);
  EXPECT_EQ(emitter_.outs[1].batch.progress, 30);
}

TEST_F(OpsTest, ChannelProgressIsMonotone) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kCount);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(100, 20, {{1, 1.0, 15}}), ctx);
  EXPECT_EQ(agg.watermark(), 20);
  // A late lower-progress message must not regress the watermark.
  agg.Invoke(ColumnarMsg(100, 5, {{1, 1.0, 25}}), ctx);
  EXPECT_EQ(agg.watermark(), 20);
}

// ---------------- WindowAggOp: sliding ----------------

TEST_F(OpsTest, SlidingWindowAssignsTupleToMultipleWindows) {
  // W=20, S=10: tuple at t=5 is in windows ending 10 and 20.
  WindowAggOp agg("a", WindowSpec::Sliding(20, 10), {}, AggKind::kSum);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 5, {{1, 3.0, 5}}), ctx);
  agg.Invoke(ColumnarMsg(0, 20, {{1, 10.0, 20}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 2u);
  EXPECT_EQ(emitter_.outs[0].batch.progress, 10);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 3.0);
  EXPECT_EQ(emitter_.outs[1].batch.progress, 20);
  EXPECT_DOUBLE_EQ(emitter_.outs[1].batch.values[0], 13.0) << "overlap: 3+10";
}

TEST_F(OpsTest, SlidingWindowCountOverlapProperty) {
  // Property: with W = 3*S every tuple appears in exactly 3 windows, so the
  // sum of all window counts = 3 * tuple count once all windows flush.
  WindowAggOp agg("a", WindowSpec::Sliding(30, 10), {}, AggKind::kCount);
  auto ctx = Ctx();
  const int kTuples = 50;
  Rng rng(3);
  for (int i = 0; i < kTuples; ++i) {
    // Random arrival order: progress must stay a lower bound on future tuple
    // times or the early tuples would (correctly) be dropped as late.
    LogicalTime t = 1 + rng.UniformInt(0, 58);
    agg.Invoke(ColumnarMsg(0, 0, {{1, 1.0, t}}), ctx);
  }
  agg.Invoke(ColumnarMsg(0, 200, {{1, 1.0, 150}}), ctx);  // flush everything
  double total = 0;
  for (const auto& out : emitter_.outs) {
    for (double v : out.batch.values) total += v;
  }
  EXPECT_DOUBLE_EQ(total, 3.0 * kTuples + 3.0);  // +3 for the flush tuple
}

// ---------------- WindowedJoinOp ----------------

TEST_F(OpsTest, JoinMatchesKeysWithinWindow) {
  WindowedJoinOp join("j", 10, {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  join.Invoke(ColumnarMsg(100, 10, {{1, 2.0, 3}, {2, 5.0, 4}}), ctx);
  join.Invoke(ColumnarMsg(200, 10, {{1, 10.0, 6}, {3, 1.0, 7}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  ASSERT_EQ(out.keys.size(), 1u) << "only key 1 appears on both sides";
  EXPECT_EQ(out.keys[0], 1);
  EXPECT_DOUBLE_EQ(out.values[0], 20.0);  // 2 * 10
}

TEST_F(OpsTest, JoinSeparatesWindows) {
  WindowedJoinOp join("j", 10, {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  // Key 1 on left in window 10, on right only in window 20: no match.
  join.Invoke(ColumnarMsg(100, 15, {{1, 2.0, 3}}), ctx);
  join.Invoke(ColumnarMsg(200, 15, {{1, 10.0, 12}}), ctx);
  join.Invoke(ColumnarMsg(100, 30, {{9, 1.0, 25}}), ctx);
  join.Invoke(ColumnarMsg(200, 30, {{8, 1.0, 25}}), ctx);
  for (const auto& out : emitter_.outs) {
    EXPECT_EQ(out.batch.keys.size(), 0u) << "cross-window keys must not join";
  }
}

TEST_F(OpsTest, JoinHandlesMultiMatch) {
  WindowedJoinOp join("j", 10, {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  join.Invoke(ColumnarMsg(100, 10, {{1, 2.0, 3}, {1, 3.0, 4}}), ctx);
  join.Invoke(ColumnarMsg(200, 10, {{1, 10.0, 6}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_EQ(emitter_.outs[0].batch.keys.size(), 2u) << "2 left x 1 right";
}

TEST_F(OpsTest, JoinSyntheticVolumeIsMinOfSides) {
  WindowedJoinOp join("j", Seconds(1), {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  join.Invoke(SyntheticMsg(100, Seconds(1), 300), ctx);
  join.Invoke(SyntheticMsg(200, Seconds(1), 100), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_EQ(emitter_.outs[0].batch.size(), 100);
}

TEST_F(OpsTest, JoinEmitsEmptyWindowToAdvanceProgress) {
  WindowedJoinOp join("j", 10, {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  join.Invoke(ColumnarMsg(100, 10, {{1, 1.0, 5}}), ctx);
  join.Invoke(ColumnarMsg(200, 10, {{2, 1.0, 5}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u) << "no matches, but progress must flow";
  EXPECT_EQ(emitter_.outs[0].batch.progress, 10);
  EXPECT_EQ(emitter_.outs[0].batch.size(), 0);
}

TEST_F(OpsTest, JoinMixedWindowEmitsKeyedAndSyntheticMatches) {
  // A window holding real tuples AND synthetic volume on both sides must
  // emit both faces; the seed dropped the synthetic matches whenever keyed
  // output existed, undercounting mixed windows.
  WindowedJoinOp join("j", 10, {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  join.Invoke(ColumnarMsg(100, 5, {{1, 2.0, 3}}), ctx);
  join.Invoke(ColumnarMsg(200, 5, {{1, 10.0, 4}}), ctx);
  join.Invoke(SyntheticMsg(100, 10, 300), ctx);
  join.Invoke(SyntheticMsg(200, 10, 100), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  ASSERT_EQ(out.keys.size(), 1u);
  EXPECT_DOUBLE_EQ(out.values[0], 20.0);
  EXPECT_EQ(out.synthetic_count, 100) << "min of the sides' volumes";
  EXPECT_EQ(out.size(), 101) << "mixed batch size = columns + synthetic";
}

// ---------------- Late-data policy ----------------

TEST_F(OpsTest, LateTuplesDoNotResurrectFiredWindows) {
  // Regression: the seed folded late tuples into windows_[b] with b <= the
  // watermark, re-creating the fired window and emitting it a second time on
  // the next watermark advance (duplicate downstream emissions).
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kSum);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 10, {{1, 3.0, 5}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 3.0);

  // A tuple for the already-fired window (t = 7 <= watermark 10) arrives.
  agg.Invoke(ColumnarMsg(0, 20, {{1, 99.0, 7}}), ctx);
  agg.Invoke(ColumnarMsg(0, 30, {{1, 4.0, 25}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 2u)
      << "the fired window must not re-emit; only window 30 follows";
  // Window 10 fired exactly once: the late 99.0 appears nowhere.
  for (std::size_t i = 1; i < emitter_.outs.size(); ++i) {
    EXPECT_NE(emitter_.outs[i].batch.progress, 10);
    for (double v : emitter_.outs[i].batch.values) EXPECT_NE(v, 99.0);
  }
  EXPECT_EQ(agg.late_dropped(), 1);
  EXPECT_EQ(agg.open_windows(), 0u);
}

TEST_F(OpsTest, LateDroppedCountsPerWindowAssignment) {
  // Sliding W=20 S=10: a tuple at t=5 belongs to windows 10 and 20. If both
  // have fired, the drop counts both lost assignments.
  WindowAggOp agg("a", WindowSpec::Sliding(20, 10), {}, AggKind::kSum);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 20, {{1, 1.0, 15}}), ctx);  // fires 20 (and 10)
  agg.Invoke(ColumnarMsg(0, 40, {{1, 1.0, 5}}), ctx);   // late for both
  EXPECT_EQ(agg.late_dropped(), 2);
}

TEST_F(OpsTest, LateSyntheticBatchIsDroppedAndCounted) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kCount);
  auto ctx = Ctx();
  agg.Invoke(SyntheticMsg(0, 10, 100), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  // Synthetic progress 10 would land in the fired window ending 10.
  agg.Invoke(SyntheticMsg(0, 10, 50), ctx);
  EXPECT_EQ(agg.late_dropped(), 50);
  EXPECT_EQ(agg.open_windows(), 0u) << "fired window must stay closed";
}

TEST_F(OpsTest, LateOnlyInputEmitsNothingNotAFabricatedValue) {
  // After dropping a late-only batch, a further watermark advance must not
  // emit anything for the closed window -- in particular no max() == 0.
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kMax);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 10, {{1, 7.0, 5}}), ctx);
  agg.Invoke(ColumnarMsg(0, 20, {{1, 9.0, 3}}), ctx);  // late-only fold
  agg.Invoke(ColumnarMsg(0, 30, {{1, 1.0, 30}}), ctx);
  // Outputs: window 10 (7.0) and window 30 (1.0). The late tuple's window
  // never re-materializes, so no batch (and no fabricated value) for it.
  ASSERT_EQ(emitter_.outs.size(), 2u);
  EXPECT_EQ(emitter_.outs[1].batch.progress, 30);
  EXPECT_DOUBLE_EQ(emitter_.outs[1].batch.values[0], 1.0);
  EXPECT_EQ(agg.late_dropped(), 1);
}

TEST_F(OpsTest, JoinLateTuplesDoNotResurrectFiredWindows) {
  WindowedJoinOp join("j", 10, {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  join.Invoke(ColumnarMsg(100, 10, {{1, 2.0, 5}}), ctx);
  join.Invoke(ColumnarMsg(200, 10, {{1, 10.0, 6}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u) << "window 10 fired";
  // Late tuple for window 10 on the right side: dropped, not re-joined.
  join.Invoke(ColumnarMsg(200, 20, {{1, 5.0, 7}}), ctx);
  join.Invoke(ColumnarMsg(100, 20, {{9, 1.0, 15}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 2u);
  EXPECT_EQ(emitter_.outs[1].batch.progress, 20);
  EXPECT_EQ(emitter_.outs[1].batch.keys.size(), 0u);
  EXPECT_EQ(join.late_dropped(), 1);
  EXPECT_EQ(join.open_windows(), 0u);
}

// ---------------- Channel validation ----------------

TEST_F(OpsTest, InvalidSenderEarnsNoWatermarkCredit) {
  // Regression: the seed mapped an invalid sender to channel -1 and counted
  // it toward the expected channel count, so one real channel plus one
  // invalid message advanced a 2-channel watermark prematurely.
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kSum);
  agg.SetChannels({100, 101});
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(100, 10, {{1, 1.0, 5}}), ctx);
  agg.Invoke(ColumnarMsg(-1, 50, {{1, 2.0, 6}}), ctx);
  EXPECT_TRUE(emitter_.outs.empty())
      << "only one real channel reported; the invalid sender must not count";
  // The second real channel completes the set; the invalid sender's data
  // still contributed to the fold.
  agg.Invoke(ColumnarMsg(101, 10, {{1, 4.0, 7}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 7.0);
}

TEST_F(OpsTest, WiredChannelsExcludeUnknownSenders) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kSum);
  agg.SetChannels({100, 101});
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(100, 10, {{1, 1.0, 5}}), ctx);
  // Operator 999 is not wired to this replica: its progress is ignored.
  agg.Invoke(ColumnarMsg(999, 99, {{1, 2.0, 6}}), ctx);
  EXPECT_TRUE(emitter_.outs.empty());
  agg.Invoke(ColumnarMsg(101, 10, {{1, 4.0, 8}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 7.0)
      << "unknown sender's data folds; only its progress is ignored";
}

TEST_F(OpsTest, JoinInvalidSenderEarnsNoWatermarkCredit) {
  WindowedJoinOp join("j", 10, {});
  join.SetLeftInputs({OperatorId{100}});
  auto ctx = Ctx();
  join.Invoke(ColumnarMsg(100, 10, {{1, 2.0, 5}}), ctx);
  join.Invoke(ColumnarMsg(-1, 50, {{1, 3.0, 6}}), ctx);
  EXPECT_TRUE(emitter_.outs.empty()) << "right side has not reported";
  join.Invoke(ColumnarMsg(200, 10, {{1, 10.0, 7}}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  // The invalid sender's tuple folded into the right side: 2 * 3 and 2 * 10.
  EXPECT_EQ(emitter_.outs[0].batch.keys.size(), 2u);
}

// ---------------- Empty-window emission policy ----------------

TEST_F(OpsTest, EmptyAccumulatorEmitsNoTuples) {
  // Kernel-level: an empty window state appends nothing -- the seed
  // fabricated max() == 0 and fell back to the global accumulator when a
  // per-key map was empty.
  AggWindowState empty;
  EventBatch out;
  AggKernel(AggKind::kMax, false).Emit(empty, 10, out);
  EXPECT_EQ(out.size(), 0) << "no fabricated max() == 0";

  AggWindowState counted;
  counted.count = 5;  // per-key kind with data but an empty key map
  AggKernel(AggKind::kSum, true).Emit(counted, 10, out);
  EXPECT_EQ(out.size(), 0) << "no fallback to the global accumulator";
}

// ---------------- Session windows ----------------

TEST_F(OpsTest, SessionWindowGroupsTuplesWithinGap) {
  WindowAggOp agg("a", WindowSpec::Session(10), {}, AggKind::kSum);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 0, {{1, 1.0, 5}, {1, 2.0, 8}, {1, 4.0, 30}}), ctx);
  EXPECT_EQ(agg.open_windows(), 2u) << "5,8 coalesce; 30 is its own session";
  agg.Invoke(ColumnarMsg(0, 100, {}), ctx);  // progress-only flush
  ASSERT_EQ(emitter_.outs.size(), 2u);
  EXPECT_EQ(emitter_.outs[0].batch.progress, 18) << "closes at last + gap";
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 3.0);
  EXPECT_EQ(emitter_.outs[1].batch.progress, 40);
  EXPECT_DOUBLE_EQ(emitter_.outs[1].batch.values[0], 4.0);
}

TEST_F(OpsTest, SessionWindowsMergeWhenBridged) {
  WindowAggOp agg("a", WindowSpec::Session(10), {}, AggKind::kCount);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 0, {{1, 1.0, 12}, {1, 1.0, 30}}), ctx);
  EXPECT_EQ(agg.open_windows(), 2u);
  // t = 21 is within gap of both sessions: they merge into [12, 30].
  agg.Invoke(ColumnarMsg(0, 0, {{1, 1.0, 21}}), ctx);
  EXPECT_EQ(agg.open_windows(), 1u);
  agg.Invoke(ColumnarMsg(0, 100, {}), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  EXPECT_EQ(emitter_.outs[0].batch.progress, 40);
  EXPECT_DOUBLE_EQ(emitter_.outs[0].batch.values[0], 3.0);
}

TEST_F(OpsTest, SessionWindowDropsTuplesForClosedSessions) {
  WindowAggOp agg("a", WindowSpec::Session(10), {}, AggKind::kSum);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(0, 0, {{1, 1.0, 5}}), ctx);
  agg.Invoke(ColumnarMsg(0, 20, {}), ctx);  // closes [5] at 15
  ASSERT_EQ(emitter_.outs.size(), 1u);
  // t = 9 would have belonged to the closed session (closes at 19 <= 20).
  agg.Invoke(ColumnarMsg(0, 20, {{1, 9.0, 9}}), ctx);
  EXPECT_EQ(agg.late_dropped(), 1);
  EXPECT_EQ(agg.open_windows(), 0u);
}

// ---------------- Kernel roster: TopK / Percentile / OHLC ----------------

TEST_F(OpsTest, TopKEmitsHighestKeysByPerKeySum) {
  AggParams params;
  params.top_k = 2;
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kTopK, false,
                  params);
  auto ctx = Ctx();
  agg.Invoke(ColumnarMsg(
                 0, 10,
                 {{1, 5.0, 3}, {2, 1.0, 4}, {1, 4.0, 5}, {3, 6.0, 6}}),
             ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  ASSERT_EQ(out.keys.size(), 2u);
  EXPECT_EQ(out.keys[0], 1) << "key 1 sums to 9";
  EXPECT_DOUBLE_EQ(out.values[0], 9.0);
  EXPECT_EQ(out.keys[1], 3) << "key 3 sums to 6";
  EXPECT_DOUBLE_EQ(out.values[1], 6.0);
}

TEST_F(OpsTest, PercentileSketchApproximatesQuantile) {
  AggParams params;
  params.quantile = 50.0;
  WindowAggOp agg("a", WindowSpec::Tumbling(100), {}, AggKind::kPercentile,
                  false, params);
  auto ctx = Ctx();
  std::vector<std::tuple<std::int64_t, double, LogicalTime>> tuples;
  for (int i = 1; i <= 99; ++i) {
    tuples.emplace_back(0, static_cast<double>(i), 50);
  }
  agg.Invoke(ColumnarMsg(0, 100, std::move(tuples)), ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  ASSERT_EQ(emitter_.outs[0].batch.values.size(), 1u);
  // LogHistogram reports the containing bucket's upper bound (~5% grid).
  EXPECT_NEAR(emitter_.outs[0].batch.values[0], 50.0, 5.0);
}

TEST_F(OpsTest, OhlcEmitsOpenHighLowCloseByLogicalTime) {
  WindowAggOp agg("a", WindowSpec::Tumbling(10), {}, AggKind::kOhlc);
  auto ctx = Ctx();
  // Deliberately out of time order within the batch: open/close follow
  // logical time, not fold order.
  agg.Invoke(ColumnarMsg(
                 0, 10,
                 {{0, 5.0, 4}, {0, 9.0, 2}, {0, 1.0, 7}, {0, 6.0, 9}}),
             ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  ASSERT_EQ(out.keys.size(), 4u);
  EXPECT_DOUBLE_EQ(out.values[0], 9.0) << "open: earliest time (t=2)";
  EXPECT_DOUBLE_EQ(out.values[1], 9.0) << "high";
  EXPECT_DOUBLE_EQ(out.values[2], 1.0) << "low";
  EXPECT_DOUBLE_EQ(out.values[3], 6.0) << "close: latest time (t=9)";
}

// ---------------- Columnar kernels vs row-wise reference ----------------

class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<AggKind, bool, LogicalTime>> {
};

TEST_P(KernelEquivalence, ColumnarFoldMatchesRowWiseBitExactly) {
  // Property: for randomized batches, WindowPlan + FoldRows produces
  // bit-identical window results to the row-wise FoldOne reference (same
  // update order, so even float accumulation matches exactly).
  const auto [kind, per_key, size] = GetParam();
  const LogicalTime S = 10;
  const AggKernel kernel(kind, per_key);
  Rng rng(7 + static_cast<std::uint64_t>(size));

  for (int trial = 0; trial < 20; ++trial) {
    EventBatch batch;
    LogicalTime t = 1 + rng.UniformInt(0, 40);
    const int rows = 1 + static_cast<int>(rng.UniformInt(0, 300));
    for (int i = 0; i < rows; ++i) {
      t += rng.UniformInt(0, 3);
      batch.Append(rng.UniformInt(0, 7), rng.Uniform(0.0, 100.0), t);
    }

    std::map<LogicalTime, AggWindowState> row_wise;
    for (std::size_t i = 0; i < batch.keys.size(); ++i) {
      const LogicalTime p = batch.times[i];
      for (LogicalTime b = ((p + S - 1) / S) * S; b < p + size; b += S) {
        kernel.FoldOne(row_wise[b], batch.keys[i], batch.values[i], p);
      }
    }

    std::map<LogicalTime, AggWindowState> columnar;
    WindowPlan plan;
    plan.Build(batch.times, size, S);
    ASSERT_TRUE(plan.contiguous()) << "time-sorted batches take the fast path";
    for (const WindowPlan::Bucket& bk : plan.buckets()) {
      for (std::uint32_t j = 0; j < bk.windows; ++j) {
        const LogicalTime b = bk.first_end + static_cast<LogicalTime>(j) * S;
        kernel.FoldRows(columnar[b], batch, bk.begin, bk.count);
      }
    }

    ASSERT_EQ(row_wise.size(), columnar.size());
    auto it = columnar.begin();
    for (const auto& [end, state] : row_wise) {
      ASSERT_EQ(end, it->first);
      EventBatch a, b;
      kernel.Emit(state, end, a);
      kernel.Emit(it->second, end, b);
      EXPECT_EQ(a.keys, b.keys);
      EXPECT_EQ(a.values, b.values) << "bit-exact, not approximate";
      ++it;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, KernelEquivalence,
    ::testing::Values(
        std::make_tuple(AggKind::kSum, false, LogicalTime{10}),
        std::make_tuple(AggKind::kSum, false, LogicalTime{30}),
        std::make_tuple(AggKind::kSum, true, LogicalTime{30}),
        std::make_tuple(AggKind::kCount, true, LogicalTime{10}),
        std::make_tuple(AggKind::kMax, false, LogicalTime{30}),
        std::make_tuple(AggKind::kMax, true, LogicalTime{10}),
        std::make_tuple(AggKind::kTopK, false, LogicalTime{30}),
        std::make_tuple(AggKind::kPercentile, false, LogicalTime{10}),
        std::make_tuple(AggKind::kOhlc, false, LogicalTime{30})));

TEST(AggKernelTest, ScatteredPlanMatchesRowWiseOnInterleavedTimes) {
  // Interleaved time clusters make assignment return to an earlier bucket,
  // so the plan falls back to the scatter pass (contiguous() is false).
  // Tumbling windows keep each window single-bucket, so even the scattered
  // fold order matches the row-wise reference bit-exactly.
  const LogicalTime S = 10;
  const AggKernel kernel(AggKind::kSum, /*per_key=*/true);
  Rng rng(11);
  EventBatch batch;
  for (int i = 0; i < 200; ++i) {
    const LogicalTime t = (i % 2 == 0 ? 0 : 100) + rng.UniformInt(1, 9);
    batch.Append(rng.UniformInt(0, 7), rng.Uniform(0.0, 100.0), t);
  }

  std::map<LogicalTime, AggWindowState> row_wise;
  for (std::size_t i = 0; i < batch.keys.size(); ++i) {
    const LogicalTime p = batch.times[i];
    kernel.FoldOne(row_wise[((p + S - 1) / S) * S], batch.keys[i],
                   batch.values[i], p);
  }

  std::map<LogicalTime, AggWindowState> columnar;
  WindowPlan plan;
  plan.Build(batch.times, S, S);
  EXPECT_FALSE(plan.contiguous());
  for (const WindowPlan::Bucket& bk : plan.buckets()) {
    kernel.FoldRows(columnar[bk.first_end], batch, plan.rows() + bk.begin,
                    bk.count);
  }

  ASSERT_EQ(row_wise.size(), columnar.size());
  auto it = columnar.begin();
  for (const auto& [end, state] : row_wise) {
    ASSERT_EQ(end, it->first);
    EventBatch a, b;
    kernel.Emit(state, end, a);
    kernel.Emit(it->second, end, b);
    EXPECT_EQ(a.keys, b.keys);
    EXPECT_EQ(a.values, b.values);
    ++it;
  }
}

TEST(AggKernelTest, ShuffledTimestampsMatchContiguousFastPathBitExactly) {
  // The same rows, once time-sorted (contiguous fast path) and once shuffled
  // (scatter pass), must produce bit-identical window results. Values are
  // integer-valued doubles, so per-window accumulation is exact regardless
  // of fold order and "bit-exact" is a meaningful assertion.
  const LogicalTime S = 10;
  for (const bool per_key : {false, true}) {
    for (const AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMax}) {
      const AggKernel kernel(kind, per_key);
      Rng rng(31);
      EventBatch sorted;
      LogicalTime t = 1;
      for (int i = 0; i < 400; ++i) {
        t += rng.UniformInt(0, 2);
        sorted.Append(rng.UniformInt(0, 9),
                      static_cast<double>(rng.UniformInt(0, 50)), t);
      }
      // Deterministic shuffle of row order (Fisher-Yates on indices).
      std::vector<std::size_t> order(sorted.keys.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<std::size_t>(
                                    rng.UniformInt(0, static_cast<std::int64_t>(
                                                          i - 1)))]);
      }
      EventBatch shuffled;
      for (std::size_t i : order) {
        shuffled.Append(sorted.keys[i], sorted.values[i], sorted.times[i]);
      }

      const auto fold = [&](const EventBatch& batch) {
        std::map<LogicalTime, AggWindowState> windows;
        WindowPlan plan;
        plan.Build(batch.times, S, S);
        for (const WindowPlan::Bucket& bk : plan.buckets()) {
          if (plan.contiguous()) {
            kernel.FoldRows(windows[bk.first_end], batch, bk.begin, bk.count);
          } else {
            kernel.FoldRows(windows[bk.first_end], batch,
                            plan.rows() + bk.begin, bk.count);
          }
        }
        return windows;
      };

      WindowPlan probe;
      probe.Build(sorted.times, S, S);
      ASSERT_TRUE(probe.contiguous());
      probe.Build(shuffled.times, S, S);
      ASSERT_FALSE(probe.contiguous());

      const auto a = fold(sorted);
      const auto b = fold(shuffled);
      ASSERT_EQ(a.size(), b.size());
      auto it = b.begin();
      for (const auto& [end, state] : a) {
        ASSERT_EQ(end, it->first);
        EventBatch ea, eb;
        kernel.Emit(state, end, ea);
        kernel.Emit(it->second, end, eb);
        EXPECT_EQ(ea.keys, eb.keys);
        EXPECT_EQ(ea.values, eb.values) << "bit-exact across row orders";
        EXPECT_EQ(ea.times, eb.times);
        ++it;
      }
    }
  }
}

// ---------------- FlatKeyMap (now an alias of SlateStore<double>) ----------

TEST(FlatKeyMapTest, RandomizedChurnMatchesUnorderedMap) {
  FlatKeyMap map;
  std::unordered_map<std::int64_t, double> ref;
  Rng rng(4242);
  for (int i = 0; i < 60'000; ++i) {
    const std::int64_t key = rng.UniformInt(-500, 500);
    if (rng.Uniform01() < 0.6) {
      const double v = static_cast<double>(rng.UniformInt(1, 9));
      map.Probe(key) += v;
      ref[key] += v;
    } else {
      EXPECT_EQ(map.Erase(key), ref.erase(key) > 0);
    }
  }
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const double* got = map.Find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(*got, v);
  }
}

TEST(FlatKeyMapTest, TombstoneReuseThenDeterministicSortedEmission) {
  FlatKeyMap map;
  // Insert, erase every odd key (tombstones), reinsert some -- the map must
  // reuse tombstoned slots and still emit sorted by key.
  for (std::int64_t k = 0; k < 2000; ++k) map.Probe(k) = static_cast<double>(k);
  for (std::int64_t k = 1; k < 2000; k += 2) EXPECT_TRUE(map.Erase(k));
  EXPECT_EQ(map.tombstones(), 1000u);
  for (std::int64_t k = 1; k < 1000; k += 2) map.Probe(k) = -1.0;
  EXPECT_EQ(map.size(), 1500u);

  std::vector<std::pair<std::int64_t, double>> out;
  map.AppendSorted(out);
  ASSERT_EQ(out.size(), 1500u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
  for (const auto& [k, v] : out) {
    if (k % 2 == 1) {
      EXPECT_DOUBLE_EQ(v, -1.0);
      EXPECT_LT(k, 1000);
    } else {
      EXPECT_DOUBLE_EQ(v, static_cast<double>(k));
    }
  }
}

// ---------------- Mixed batches through stateless ops ----------------

TEST_F(OpsTest, FilterCarriesSyntheticFaceOfMixedBatches) {
  FilterOp filter("f", {}, [](std::int64_t k, double) { return k == 2; },
                  0.5);
  auto ctx = Ctx();
  Message m = ColumnarMsg(0, 10, {{1, 1.0, 1}, {2, 2.0, 2}});
  m.batch.synthetic_count = 100;
  filter.Invoke(m, ctx);
  ASSERT_EQ(emitter_.outs.size(), 1u);
  const EventBatch& out = emitter_.outs[0].batch;
  ASSERT_EQ(out.keys.size(), 1u);
  EXPECT_EQ(out.synthetic_count, 50) << "scaled by selectivity";
  EXPECT_EQ(out.size(), 51);
}

// ---------------- Watermark: one rule, three operators ----------------

/// The per-channel watermark rule, written out independently of the
/// operators: a valid sender inside the wired set (any valid sender while
/// unwired) raises its channel's progress, which starts at 0; once
/// `expected` channels have reported, the watermark is their minimum, and it
/// never falls.
struct ReferenceWatermark {
  std::vector<std::int64_t> wired;  // sorted; empty = accept any valid sender
  int expected = 1;
  std::unordered_map<std::int64_t, LogicalTime> progress;
  LogicalTime watermark = -1;

  /// Returns true when the watermark rose.
  bool Credit(std::int64_t sender, LogicalTime p) {
    if (sender < 0) return false;
    if (!wired.empty() &&
        !std::binary_search(wired.begin(), wired.end(), sender)) {
      return false;
    }
    LogicalTime& cp = progress[sender];
    cp = std::max(cp, p);
    if (static_cast<int>(progress.size()) < expected) return false;
    LogicalTime wm = kTimeMax;
    for (const auto& [ch, q] : progress) wm = std::min(wm, q);
    if (wm <= watermark) return false;
    watermark = wm;
    return true;
  }
};

/// Drives `op` (tumbling windows of 10 ticks) with a seeded stream of
/// one-tuple synthetic batches and progress-only messages. Senders are drawn
/// from wired ids, unknown ids and -1; a sender's progress sometimes goes
/// backwards, and early on can be negative. After every Invoke the
/// operator's watermark, late drops and emitted window ends must match the
/// reference. `trailing_progress` marks KeyedCounterOp, which also reports
/// the last passed window end when it closed nothing there.
template <typename Op>
void ExpectReferenceWatermark(Op& op, int default_channels, bool wired,
                              bool trailing_progress, std::uint64_t seed) {
  constexpr LogicalTime kWindow = 10;
  Rng rng(seed);
  ReferenceWatermark ref;
  ref.expected = default_channels;
  const std::vector<std::int64_t> pool = {100, 101, 102, 103, 104};
  if (wired) {
    std::vector<std::int64_t> ids;
    const std::int64_t n = rng.UniformInt(1, 3);
    while (static_cast<std::int64_t>(ids.size()) < n) {
      const std::int64_t id = pool[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
    ref.wired = ids;
    std::sort(ref.wired.begin(), ref.wired.end());
    ref.expected = std::max(default_channels, static_cast<int>(ids.size()));
    op.SetChannels(ids);
  }
  std::vector<std::int64_t> senders = pool;
  senders.push_back(900);
  senders.push_back(-1);

  TestEmitter emitter;
  Rng op_rng(1);
  std::unordered_map<std::int64_t, LogicalTime> drawn;  // per-sender walk
  std::set<LogicalTime> open;  // window ends holding a tuple
  LogicalTime emitted = kTimeMin;
  std::int64_t late = 0;
  for (int step = 0; step < 300; ++step) {
    const std::int64_t sender = senders[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(senders.size()) - 1))];
    LogicalTime& walk = drawn[sender];
    const LogicalTime p = walk + rng.UniformInt(-8, 15);
    walk = std::max(walk, p);

    Message m;
    m.id = MessageId{step};
    m.sender = OperatorId{sender};
    m.batch.progress = p;
    if (p >= 0 && rng.Chance(0.7)) {
      m.batch.synthetic_count = 1;
      const LogicalTime end = ((p + kWindow - 1) / kWindow) * kWindow;
      if (end <= ref.watermark) {
        ++late;
      } else {
        open.insert(end);
      }
    }

    std::vector<LogicalTime> want;
    if (ref.Credit(sender, p)) {
      while (!open.empty() && *open.begin() <= ref.watermark) {
        emitted = *open.begin();
        want.push_back(emitted);
        open.erase(open.begin());
      }
      const LogicalTime last_end = (ref.watermark / kWindow) * kWindow;
      if (trailing_progress && last_end > emitted) {
        emitted = last_end;
        want.push_back(emitted);
      }
    }

    emitter.outs.clear();
    InvokeContext ctx{0, &emitter, &op_rng};
    op.Invoke(m, ctx);
    std::vector<LogicalTime> got;
    for (const CapturedOut& out : emitter.outs) {
      got.push_back(out.batch.progress);
    }
    ASSERT_EQ(op.watermark(), ref.watermark) << "step " << step;
    ASSERT_EQ(got, want) << "step " << step;
    ASSERT_EQ(op.late_dropped(), late) << "step " << step;
  }
}

TEST(WatermarkTest, MatchesPerChannelMinimumReference) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (bool wired : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (wired ? " wired" : " unwired"));
      {
        SCOPED_TRACE("WindowAggOp");
        WindowAggOp op("a", WindowSpec::Tumbling(10), {}, AggKind::kCount);
        ExpectReferenceWatermark(op, 1, wired, false, seed);
      }
      {
        SCOPED_TRACE("KeyedCounterOp");
        KeyedCounterOp op("c", WindowSpec::Tumbling(10), {});
        ExpectReferenceWatermark(op, 1, wired, true, seed);
      }
      {
        SCOPED_TRACE("WindowedJoinOp");
        WindowedJoinOp op("j", 10, {});
        op.SetLeftInputs({OperatorId{100}, OperatorId{102}});
        ExpectReferenceWatermark(op, 2, wired, false, seed);
      }
    }
  }
}

}  // namespace
}  // namespace cameo
