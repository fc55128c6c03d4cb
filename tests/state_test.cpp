// Unit and property tests for src/state: the SlateStore open-addressing
// keyed store (churn equivalence vs std::unordered_map, tombstone reuse,
// deterministic sorted emission, rehash behavior), the TimerWheel logical
// calendar queue ((time, seq) fire order under fixed-seed replay and across
// bucket widths, overflow horizon crossing, lazy re-arm), and KeyedCounterOp
// (bit-exact data equivalence with the per-key kCount WindowAggOp, TTL
// books-close accounting, no post-expiry folds, deadlines inside the wheel).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "ops/window_agg.h"
#include "state/keyed_counter.h"
#include "state/slate_store.h"
#include "state/timer_wheel.h"

namespace cameo {
namespace {

// ---------------- SlateStore ----------------

TEST(SlateStoreTest, ProbeFindEraseBasics) {
  SlateStore<double> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Find(7), nullptr);
  s.Probe(7) += 1.5;
  s.Probe(7) += 1.5;
  ASSERT_NE(s.Find(7), nullptr);
  EXPECT_DOUBLE_EQ(*s.Find(7), 3.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Erase(7));
  EXPECT_FALSE(s.Erase(7));
  EXPECT_EQ(s.Find(7), nullptr);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.tombstones(), 1u);
}

TEST(SlateStoreTest, ProbeWithInitValue) {
  SlateStore<double> s;
  EXPECT_DOUBLE_EQ(s.Probe(1, 42.0), 42.0);
  // Present key: init is ignored.
  EXPECT_DOUBLE_EQ(s.Probe(1, 99.0), 42.0);
}

TEST(SlateStoreTest, MatchesUnorderedMapUnderChurn) {
  SlateStore<double> store;
  std::unordered_map<std::int64_t, double> ref;
  Rng rng(20240807);
  for (int round = 0; round < 200'000; ++round) {
    const std::int64_t key = rng.UniformInt(0, 4000);
    const double roll = rng.Uniform01();
    if (roll < 0.55) {
      const double v = rng.Uniform(0, 10);
      store.Probe(key) += v;
      ref[key] += v;
    } else if (roll < 0.85) {
      EXPECT_EQ(store.Erase(key), ref.erase(key) > 0);
    } else {
      const auto it = ref.find(key);
      const double* found = store.Find(key);
      ASSERT_EQ(found != nullptr, it != ref.end());
      if (found != nullptr) EXPECT_DOUBLE_EQ(*found, it->second);
    }
    if (round % 50'000 == 0) EXPECT_EQ(store.size(), ref.size());
  }
  ASSERT_EQ(store.size(), ref.size());
  std::vector<std::pair<std::int64_t, double>> got;
  store.AppendSorted(got);
  std::vector<std::pair<std::int64_t, double>> want(ref.begin(), ref.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_DOUBLE_EQ(got[i].second, want[i].second);
  }
}

TEST(SlateStoreTest, TombstoneReuseKeepsCapacityFlatUnderChurn) {
  SlateStore<double> s;
  // Warm up to a plateau, then run insert/erase churn at constant live size:
  // same-size tombstone sweeps must hold capacity flat forever.
  for (std::int64_t k = 0; k < 200; ++k) s.Probe(k) = 1;
  // Let churn establish the steady-state capacity first (the first sweeps
  // may still double while tombstones trail the live count).
  for (std::int64_t k = 0; k < 20'000; ++k) {
    s.Erase(k % 200);
    s.Probe(200 + k) = 1;
    s.Erase(200 + k);
    s.Probe(k % 200) = 1;
  }
  const std::size_t cap = s.capacity();
  for (std::int64_t k = 0; k < 100'000; ++k) {
    s.Erase(k % 200);
    s.Probe(1'000'000 + k) = 1;
    s.Erase(1'000'000 + k);
    s.Probe(k % 200) = 1;
  }
  EXPECT_EQ(s.capacity(), cap) << "churn at constant live size must not grow";
  EXPECT_EQ(s.size(), 200u);
}

TEST(SlateStoreTest, TombstoneSlotIsReusedByReinsert) {
  SlateStore<double> s;
  s.Probe(11) = 1;
  s.Probe(12) = 2;
  s.Erase(11);
  EXPECT_EQ(s.tombstones(), 1u);
  s.Probe(11) = 3;  // first-tombstone reuse on the probe path
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(*s.Find(11), 3.0);
  EXPECT_DOUBLE_EQ(*s.Find(12), 2.0);
}

TEST(SlateStoreTest, SortedEmissionDeterministicAfterChurn) {
  // Two stores fed the same final contents via different histories must emit
  // identical sorted sequences.
  SlateStore<double> a;
  SlateStore<double> b;
  for (std::int64_t k = 0; k < 500; ++k) a.Probe(k) = static_cast<double>(k);
  for (std::int64_t k = 499; k >= 0; --k) {
    b.Probe(k + 1000) = 7;  // transient keys, erased below
    b.Probe(k) = static_cast<double>(k);
  }
  for (std::int64_t k = 0; k < 500; ++k) b.Erase(k + 1000);
  std::vector<std::pair<std::int64_t, double>> ea;
  std::vector<std::pair<std::int64_t, double>> eb;
  a.AppendSorted(ea);
  b.AppendSorted(eb);
  EXPECT_EQ(ea, eb);
  for (std::size_t i = 1; i < ea.size(); ++i) {
    EXPECT_LT(ea[i - 1].first, ea[i].first);
  }
}

TEST(SlateStoreTest, GrowthRehashPreservesContents) {
  SlateStore<double> s;
  const std::int64_t n = 100'000;
  for (std::int64_t k = 0; k < n; ++k) s.Probe(k * 7) = static_cast<double>(k);
  EXPECT_GT(s.rehashes(), 0u);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    const double* v = s.Find(k * 7);
    ASSERT_NE(v, nullptr);
    EXPECT_DOUBLE_EQ(*v, static_cast<double>(k));
  }
}

TEST(SlateStoreTest, ClearKeepsSlabsAndRestarts) {
  SlateStore<double> s;
  for (std::int64_t k = 0; k < 5000; ++k) s.Probe(k) = 1;
  for (std::int64_t k = 0; k < 100; ++k) s.Erase(k);  // tombstones too
  const std::size_t capacity = s.capacity();
  const std::uint64_t rehashes = s.rehashes();
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.capacity(), capacity);
  EXPECT_EQ(s.Find(3), nullptr);
  EXPECT_EQ(s.Find(4000), nullptr);
  s.Probe(3) = 9;
  EXPECT_DOUBLE_EQ(*s.Find(3), 9.0);
  EXPECT_EQ(s.size(), 1u);
  for (std::int64_t k = 0; k < 5000; ++k) s.Probe(k) = 1;
  EXPECT_EQ(s.rehashes(), rehashes) << "a same-size refill reuses the slabs";
}

TEST(SlateStoreTest, MoveTransfersContents) {
  SlateStore<double> a;
  for (std::int64_t k = 0; k < 1000; ++k) a.Probe(k) = static_cast<double>(k);
  SlateStore<double> b = std::move(a);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_DOUBLE_EQ(*b.Find(999), 999.0);
}

// ---------------- TimerWheel ----------------

TEST(TimerWheelTest, FiresInTimeSeqOrderUnderFixedSeedReplay) {
  const auto run = [](std::uint64_t seed) {
    TimerWheel w;
    Rng rng(seed);
    std::vector<TimerWheel::Timer> fired;
    std::uint64_t scheduled = 0;
    LogicalTime wm = -1;
    // Interleave scheduling and advancing; deadlines span in-wheel and
    // overflow ranges (wheel horizon = 256 << 6 = 16384 ticks).
    for (int round = 0; round < 300; ++round) {
      const int arms = static_cast<int>(rng.UniformInt(0, 20));
      for (int i = 0; i < arms; ++i) {
        const LogicalTime t = wm + 1 + rng.UniformInt(0, 60'000);
        w.Schedule(t, /*key=*/static_cast<std::int64_t>(scheduled), /*tag=*/0);
        ++scheduled;
      }
      wm += rng.UniformInt(1, 900);
      w.Advance(wm, [&](LogicalTime t, std::int64_t key, std::uint32_t tag) {
        fired.push_back({t, /*seq=*/static_cast<std::uint64_t>(key), key, tag});
      });
    }
    w.Advance(wm + 100'000, [&](LogicalTime t, std::int64_t key,
                                std::uint32_t tag) {
      fired.push_back({t, static_cast<std::uint64_t>(key), key, tag});
    });
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(fired.size(), scheduled);
    return fired;
  };

  const auto fired = run(99);
  // Within one Advance the order is globally (time, seq); across Advances
  // times are non-decreasing by construction of the watermark.
  for (std::size_t i = 1; i < fired.size(); ++i) {
    if (fired[i - 1].time == fired[i].time) {
      EXPECT_LT(fired[i - 1].seq, fired[i].seq)
          << "ties must fire in schedule order";
    }
  }
  std::vector<bool> seen(fired.size(), false);
  for (const auto& t : fired) {
    ASSERT_LT(static_cast<std::size_t>(t.key), seen.size());
    EXPECT_FALSE(seen[static_cast<std::size_t>(t.key)]) << "double fire";
    seen[static_cast<std::size_t>(t.key)] = true;
  }
  // Fixed seed => bit-identical replay.
  const auto replay = run(99);
  ASSERT_EQ(replay.size(), fired.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(replay[i].time, fired[i].time);
    EXPECT_EQ(replay[i].key, fired[i].key);
  }
}

TEST(TimerWheelTest, AdvanceRespectsExactDeadlines) {
  TimerWheel w;
  w.Schedule(10, 1);
  w.Schedule(11, 2);
  std::vector<std::int64_t> fired;
  w.Advance(10, [&](LogicalTime, std::int64_t k, std::uint32_t) {
    fired.push_back(k);
  });
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1}));
  w.Advance(11, [&](LogicalTime, std::int64_t k, std::uint32_t) {
    fired.push_back(k);
  });
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1, 2}));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, OverflowTimersCrossIntoWheel) {
  TimerWheel w(/*width_shift=*/0);  // horizon: 256 ticks
  w.Schedule(100'000, 1);
  w.Schedule(100, 2);
  std::vector<std::int64_t> fired;
  const auto fire = [&](LogicalTime, std::int64_t k, std::uint32_t) {
    fired.push_back(k);
  };
  w.Advance(99'000, fire);  // far timer migrates overflow -> wheel unfired
  EXPECT_EQ(fired, (std::vector<std::int64_t>{2}));
  EXPECT_EQ(w.size(), 1u);
  w.Advance(100'000, fire);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{2, 1}));
}

TEST(TimerWheelTest, ReArmFromFireCallback) {
  TimerWheel w;
  w.Schedule(5, 1);
  std::vector<std::pair<LogicalTime, std::int64_t>> fired;
  const auto advance = [&](LogicalTime wm) {
    w.Advance(wm, [&](LogicalTime t, std::int64_t k, std::uint32_t) {
      fired.emplace_back(t, k);
      if (t < 20) w.Schedule(t + 10, k);  // lazy re-arm
    });
  };
  advance(5);
  advance(15);
  advance(40);
  EXPECT_EQ(fired, (std::vector<std::pair<LogicalTime, std::int64_t>>{
                       {5, 1}, {15, 1}, {25, 1}}));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, FiringOrderIndependentOfBucketWidth) {
  // Bucket width only decides where a timer waits (wheel bucket or overflow
  // heap); Advance sorts each due set by (time, seq), so the fired sequence
  // and the pending count must not depend on it. The key packs the schedule
  // index (== the wheel's seq) above an arbitrary payload byte.
  using Fired = std::tuple<LogicalTime, std::uint64_t, std::int64_t,
                           std::uint32_t>;
  struct Trace {
    std::vector<Fired> fired;
    std::vector<std::size_t> sizes;  // size() after every Advance
  };
  const auto run = [](int width_shift, std::uint64_t seed) {
    TimerWheel w(width_shift);
    Rng rng(seed);
    Trace trace;
    std::int64_t scheduled = 0;
    LogicalTime last_deadline = -1;
    // Deadline offsets from inside one 64-tick bucket to past the widest
    // (256 << 24 tick) horizon.
    const auto offset = [&rng] {
      static constexpr LogicalTime kScales[] = {63, LogicalTime{1} << 14,
                                                LogicalTime{1} << 22,
                                                LogicalTime{1} << 34};
      return rng.UniformInt(0, kScales[rng.UniformInt(0, 3)]);
    };
    const auto arm = [&](LogicalTime wm) {
      // Equal-time ties: reuse the previous deadline while it is still due
      // later than the watermark.
      const LogicalTime t = last_deadline > wm && rng.Chance(0.2)
                                ? last_deadline
                                : wm + 1 + offset();
      const std::int64_t key = (scheduled++ << 8) | rng.UniformInt(0, 255);
      w.Schedule(t, key, static_cast<std::uint32_t>(rng.UniformInt(0, 1)));
      last_deadline = t;
    };
    LogicalTime wm = -1;
    for (int round = 0; round < 400; ++round) {
      const int arms = static_cast<int>(rng.UniformInt(0, 12));
      for (int i = 0; i < arms; ++i) arm(wm);
      // Small steps mostly, occasionally a jump across many horizons.
      wm += rng.Chance(0.1) ? rng.UniformInt(1, LogicalTime{1} << 35)
                            : rng.UniformInt(1, 5'000);
      w.Advance(wm, [&](LogicalTime t, std::int64_t key, std::uint32_t tag) {
        trace.fired.emplace_back(t, static_cast<std::uint64_t>(key >> 8), key,
                                 tag);
        if (tag == 1 && rng.Chance(0.5)) arm(wm);  // re-arm from the callback
      });
      trace.sizes.push_back(w.size());
    }
    w.Advance(wm + (LogicalTime{1} << 36),
              [&](LogicalTime t, std::int64_t key, std::uint32_t tag) {
                trace.fired.emplace_back(
                    t, static_cast<std::uint64_t>(key >> 8), key, tag);
              });
    trace.sizes.push_back(w.size());
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(trace.fired.size(), static_cast<std::size_t>(scheduled));
    return trace;
  };

  for (std::uint64_t seed : {3u, 41u, 977u}) {
    SCOPED_TRACE(seed);
    const Trace reference = run(0, seed);
    for (int width_shift : {6, 24}) {
      SCOPED_TRACE(width_shift);
      const Trace t = run(width_shift, seed);
      EXPECT_EQ(t.sizes, reference.sizes);
      ASSERT_EQ(t.fired.size(), reference.fired.size());
      for (std::size_t i = 0; i < t.fired.size(); ++i) {
        ASSERT_EQ(t.fired[i], reference.fired[i]) << "fire #" << i;
      }
    }
  }
}

// ---------------- KeyedCounterOp ----------------

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

class KeyedCounterTest : public ::testing::Test {
 protected:
  InvokeContext Ctx(TestEmitter& emitter, SimTime now = 0) {
    return InvokeContext{now, &emitter, &rng_};
  }

  Message Msg(LogicalTime progress,
              std::vector<std::tuple<std::int64_t, double, LogicalTime>>
                  tuples) {
    Message m;
    m.id = MessageId{next_id_++};
    m.sender = OperatorId{0};
    m.batch.progress = progress;
    for (auto& [k, v, t] : tuples) m.batch.Append(k, v, t);
    return m;
  }

  Rng rng_{1};
  std::int64_t next_id_ = 0;
};

/// Drives the same fixed-seed keyed traffic through KeyedCounterOp and a
/// per-key kCount WindowAggOp and asserts the *data* emissions (progress,
/// keys, counts, times) are bit-identical. Progress-only batches are skipped:
/// the slate operator reports trailing progress where the window map emits
/// nothing, which carries no data.
void ExpectCountEquivalence(WindowSpec window, bool mini_batch,
                            std::uint64_t seed, int batches) {
  KeyedCounterOptions opts;
  opts.mini_batch = mini_batch;
  KeyedCounterOp counter("c", window, {}, opts);
  WindowAggOp agg("a", window, {}, AggKind::kCount, /*per_key=*/true);

  TestEmitter ce;
  TestEmitter ae;
  Rng rng(seed);
  Rng op_rng(1);
  std::int64_t next_id = 0;
  LogicalTime p = 0;
  for (int b = 0; b < batches; ++b) {
    p += rng.UniformInt(1, Seconds(1));
    const int rows = static_cast<int>(rng.UniformInt(0, 200));
    Message m;
    m.id = MessageId{next_id++};
    m.sender = OperatorId{0};
    m.batch.progress = p;
    for (int r = 0; r < rows; ++r) {
      const std::int64_t key = rng.UniformInt(0, 50);
      // Times scattered around the progress point, including stragglers that
      // are late for some windows.
      const LogicalTime t =
          std::max<LogicalTime>(0, p - Seconds(2) + rng.UniformInt(0, Seconds(3)));
      m.batch.Append(key, 1.0, t);
    }
    Message copy;
    copy.id = m.id;
    copy.sender = m.sender;
    copy.batch.progress = m.batch.progress;
    copy.batch.keys = m.batch.keys;
    copy.batch.values = m.batch.values;
    copy.batch.times = m.batch.times;
    InvokeContext cc{0, &ce, &op_rng};
    InvokeContext ac{0, &ae, &op_rng};
    counter.Invoke(m, cc);
    agg.Invoke(copy, ac);
  }

  const auto data_only = [](const std::vector<CapturedOut>& outs) {
    std::vector<const CapturedOut*> d;
    for (const CapturedOut& o : outs) {
      if (o.batch.columnar()) d.push_back(&o);
    }
    return d;
  };
  const auto cd = data_only(ce.outs);
  const auto ad = data_only(ae.outs);
  ASSERT_EQ(cd.size(), ad.size());
  for (std::size_t i = 0; i < cd.size(); ++i) {
    EXPECT_EQ(cd[i]->batch.progress, ad[i]->batch.progress);
    EXPECT_EQ(cd[i]->batch.keys, ad[i]->batch.keys);
    EXPECT_EQ(cd[i]->batch.times, ad[i]->batch.times);
    ASSERT_EQ(cd[i]->batch.values.size(), ad[i]->batch.values.size());
    for (std::size_t j = 0; j < cd[i]->batch.values.size(); ++j) {
      EXPECT_DOUBLE_EQ(cd[i]->batch.values[j], ad[i]->batch.values[j])
          << "window " << cd[i]->batch.progress << " key "
          << cd[i]->batch.keys[j];
    }
  }
  EXPECT_EQ(counter.watermark(), agg.watermark());
}

TEST_F(KeyedCounterTest, TumblingMatchesWindowAggCount) {
  ExpectCountEquivalence(WindowSpec::Tumbling(Seconds(1)), /*mini_batch=*/true,
                         7, 300);
}

TEST_F(KeyedCounterTest, TumblingMatchesWindowAggCountUngrouped) {
  ExpectCountEquivalence(WindowSpec::Tumbling(Seconds(1)), /*mini_batch=*/false,
                         7, 300);
}

TEST_F(KeyedCounterTest, SlidingTwoCellMatchesWindowAggCount) {
  ExpectCountEquivalence(WindowSpec::Sliding(Seconds(2), Seconds(1)),
                         /*mini_batch=*/true, 11, 300);
}

TEST_F(KeyedCounterTest, SlidingOverflowPathMatchesWindowAggCount) {
  // size = 4 * slide: four windows open per key, twice the resident cells --
  // every extra fold exercises the overflow spill and its emission merge.
  ExpectCountEquivalence(WindowSpec::Sliding(Seconds(4), Seconds(1)),
                         /*mini_batch=*/true, 13, 200);
}

TEST_F(KeyedCounterTest, MiniBatchAndRowWiseFoldsAreBitIdentical) {
  for (bool mini : {false, true}) {
    SCOPED_TRACE(mini);
    ExpectCountEquivalence(WindowSpec::Sliding(Seconds(3), Seconds(1)), mini,
                           17, 200);
  }
}

TEST_F(KeyedCounterTest, BooksCloseWithTtlExpiry) {
  KeyedCounterOptions opts;
  opts.ttl = Seconds(2);
  KeyedCounterOp op("c", WindowSpec::Tumbling(Seconds(1)), {}, opts);
  TestEmitter emitter;
  Rng traffic(123);
  LogicalTime p = 0;
  for (int b = 0; b < 400; ++b) {
    p += traffic.UniformInt(Millis(100), Millis(800));
    std::vector<std::tuple<std::int64_t, double, LogicalTime>> rows;
    const int n = static_cast<int>(traffic.UniformInt(0, 30));
    for (int r = 0; r < n; ++r) {
      // Rotating key population: early keys go idle and must expire.
      const std::int64_t lo = p / Seconds(4) * 100;
      rows.emplace_back(lo + traffic.UniformInt(0, 99), 1.0,
                        std::max<LogicalTime>(0, p - Millis(50)));
    }
    auto ctx = Ctx(emitter);
    op.Invoke(Msg(p, std::move(rows)), ctx);
  }
  // Push the watermark far past every open window and TTL deadline. Expiry
  // defers at most one wheel round per open-window guard, so advance in a
  // few strides rather than one jump.
  for (int i = 1; i <= 8; ++i) {
    auto ctx = Ctx(emitter);
    op.Invoke(Msg(p + i * Seconds(5), {}), ctx);
  }
  EXPECT_EQ(op.live_keys(), 0u) << "all keys idle => all expired";
  EXPECT_EQ(op.inserted(), op.expired() + static_cast<std::int64_t>(op.live_keys()));
  // Tumbling conservation: every observed row was either counted in an
  // emitted window or dropped late.
  EXPECT_EQ(static_cast<double>(op.rows_seen() - op.late_dropped()),
            op.count_emitted());
  EXPECT_EQ(op.pending_timers(), 0u);
}

TEST_F(KeyedCounterTest, WindowAndTtlDeadlinesStayInWheel) {
  // Shaped like the benchmark's batch-analytics counter: 1 s tumbling
  // windows, a 2 s TTL, two upstream channels whose progress interleaves.
  // Every close and TTL deadline must land inside the wheel's horizon, so no
  // Schedule or fire pays the overflow heap.
  KeyedCounterOptions opts;
  opts.ttl = Seconds(2);
  KeyedCounterOp op("c", WindowSpec::Tumbling(Seconds(1)), {}, opts);
  op.SetChannels({0, 1});
  TestEmitter emitter;
  Rng traffic(31);
  LogicalTime progress[2] = {0, 0};
  std::size_t max_pending = 0;
  while (std::min(progress[0], progress[1]) < Seconds(3)) {
    const int ch = static_cast<int>(traffic.UniformInt(0, 1));
    const LogicalTime from = progress[ch];
    progress[ch] += traffic.UniformInt(Millis(1), Millis(40));
    std::vector<std::tuple<std::int64_t, double, LogicalTime>> rows;
    const int n = static_cast<int>(traffic.UniformInt(0, 300));
    for (int r = 0; r < n; ++r) {
      rows.emplace_back(traffic.UniformInt(0, 20'000), 1.0,
                        traffic.UniformInt(from, progress[ch]));
    }
    Message m = Msg(progress[ch], std::move(rows));
    m.sender = OperatorId{ch};
    auto ctx = Ctx(emitter);
    op.Invoke(m, ctx);
    ASSERT_EQ(op.overflow_timers(), 0u)
        << "at progress " << progress[0] << "/" << progress[1];
    max_pending = std::max(max_pending, op.pending_timers());
  }
  EXPECT_GT(max_pending, 10'000u) << "close and TTL timers were armed";
  EXPECT_GT(op.count_emitted(), 0.0) << "windows closed during the run";
}

TEST_F(KeyedCounterTest, ExpiredKeyNeverFoldedAfterwardAndReinsertsFresh) {
  KeyedCounterOptions opts;
  opts.ttl = Seconds(1);
  KeyedCounterOp op("c", WindowSpec::Tumbling(Seconds(1)), {}, opts);
  TestEmitter emitter;

  auto send = [&](LogicalTime p,
                  std::vector<std::tuple<std::int64_t, double, LogicalTime>>
                      rows) {
    auto ctx = Ctx(emitter);
    op.Invoke(Msg(p, std::move(rows)), ctx);
  };

  send(Millis(500), {{42, 1.0, Millis(400)}});
  EXPECT_EQ(op.inserted(), 1);
  ASSERT_NE(op.store().Find(42), nullptr);
  // Idle past the TTL (window 1 s closes, then the 1 s TTL lapses).
  send(Seconds(3), {});
  send(Seconds(6), {});
  EXPECT_EQ(op.expired(), 1);
  EXPECT_EQ(op.store().Find(42), nullptr) << "slate erased on expiry";
  EXPECT_EQ(op.live_keys(), 0u);

  // The key returns: a fresh slate is inserted (count restarts from zero --
  // no stale state survived expiry).
  send(Seconds(6) + Millis(300), {{42, 1.0, Seconds(6) + Millis(200)}});
  EXPECT_EQ(op.inserted(), 2);
  send(Seconds(8), {});
  // Exactly two data emissions for key 42, one per active window, 1 row each.
  double counted = 0;
  for (const CapturedOut& o : emitter.outs) {
    for (std::size_t i = 0; i < o.batch.keys.size(); ++i) {
      if (o.batch.keys[i] == 42) counted += o.batch.values[i];
    }
  }
  EXPECT_DOUBLE_EQ(counted, 2.0);
  EXPECT_EQ(op.inserted(), op.expired() + static_cast<std::int64_t>(op.live_keys()));
}

TEST_F(KeyedCounterTest, LateRowsDropDeterministically) {
  KeyedCounterOp op("c", WindowSpec::Tumbling(Seconds(1)), {});
  TestEmitter emitter;
  auto ctx = Ctx(emitter);
  op.Invoke(Msg(Seconds(2), {{1, 1.0, Millis(500)}}), ctx);  // wm -> 2 s
  EXPECT_EQ(op.late_dropped(), 0);
  auto ctx2 = Ctx(emitter);
  // Row for window 1 s arrives after the watermark passed it: dropped.
  op.Invoke(Msg(Seconds(2) + 1, {{2, 1.0, Millis(700)}}), ctx2);
  EXPECT_EQ(op.late_dropped(), 1);
  EXPECT_EQ(op.store().Find(2), nullptr);
}

}  // namespace
}  // namespace cameo
