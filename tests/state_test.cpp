// Unit and property tests for src/state: the SlateStore open-addressing
// keyed store (churn equivalence vs std::unordered_map, tombstone reuse,
// deterministic sorted emission, rehash behavior) and KeyedCounterOp
// (bit-exact emissions against a std::map reference over tumbling and
// sliding windows, stragglers and synthetic rows; books-close accounting;
// key state that ends with its last window; late-row drops).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "state/keyed_counter.h"
#include "state/slate_store.h"

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

/// Row-wise std::map reference of the counter's semantics: inclusive-right
/// windows of size W and slide S (a row at t counts in every window end that
/// is a multiple of S in [t, t + W)), synthetic rows as key 0 at the batch's
/// progress, folds into a window the watermark has passed dropped as late,
/// one batch per closed window with keys ascending, and a progress-only
/// batch for the last passed window end when no window closed there.
struct MapReference {
  struct Out {
    LogicalTime progress;
    std::vector<std::pair<std::int64_t, double>> rows;
  };

  WindowSpec window;
  std::map<LogicalTime, std::map<std::int64_t, double>> open;
  std::vector<Out> out;
  LogicalTime wm = -1;
  LogicalTime emitted = kTimeMin;
  std::int64_t late = 0;

  void Fold(std::int64_t key, double n, LogicalTime t) {
    const LogicalTime S = window.slide;
    for (LogicalTime end = (t + S - 1) / S * S; end < t + window.size;
         end += S) {
      if (end <= wm) {
        late += static_cast<std::int64_t>(n);
      } else {
        open[end][key] += n;
      }
    }
  }

  void Consume(const EventBatch& b) {
    for (std::size_t i = 0; i < b.keys.size(); ++i) {
      Fold(b.keys[i], 1.0, b.times[i]);
    }
    if (b.synthetic_count > 0) {
      Fold(0, static_cast<double>(b.synthetic_count), b.progress);
    }
    if (b.progress <= wm) return;
    wm = b.progress;
    while (!open.empty() && open.begin()->first <= wm) {
      emitted = open.begin()->first;
      out.push_back({emitted, {open.begin()->second.begin(),
                               open.begin()->second.end()}});
      open.erase(open.begin());
    }
    const LogicalTime last_end = wm / window.slide * window.slide;
    if (last_end > emitted) {
      emitted = last_end;
      out.push_back({last_end, {}});
    }
  }
};

/// Drives fixed-seed keyed traffic -- rows scattered around each batch's
/// progress, including stragglers late for some of their windows, synthetic
/// rows, and progress jumps past empty windows -- through KeyedCounterOp
/// and the map reference, and asserts every emitted batch matches
/// bit-exactly, progress-only batches included.
void ExpectMatchesMapReference(WindowSpec window, std::uint64_t seed,
                               int batches) {
  KeyedCounterOp counter("c", window, {});
  MapReference ref{window};
  TestEmitter emitter;
  Rng rng(seed);
  Rng op_rng(1);
  LogicalTime p = 0;
  double counted = 0;
  for (int b = 0; b < batches; ++b) {
    // Occasional row-less long jumps pass window ends that hold no rows,
    // where only the trailing progress-only batch reports the watermark.
    const bool jump = rng.Chance(0.1);
    p += jump ? rng.UniformInt(Seconds(2), Seconds(6))
              : rng.UniformInt(1, Seconds(1));
    Message m;
    m.id = MessageId{b};
    m.sender = OperatorId{0};
    m.batch.progress = p;
    const int rows = jump ? 0 : static_cast<int>(rng.UniformInt(0, 200));
    for (int r = 0; r < rows; ++r) {
      const LogicalTime t = std::max<LogicalTime>(
          0, p - Seconds(2) + rng.UniformInt(0, Seconds(3)));
      m.batch.Append(rng.UniformInt(0, 50), 1.0, t);
    }
    if (!jump && rng.Chance(0.3)) {
      m.batch.synthetic_count = rng.UniformInt(1, 40);
    }
    ref.Consume(m.batch);
    InvokeContext ctx{0, &emitter, &op_rng};
    counter.Invoke(m, ctx);
  }

  ASSERT_EQ(emitter.outs.size(), ref.out.size());
  for (std::size_t i = 0; i < ref.out.size(); ++i) {
    const EventBatch& got = emitter.outs[i].batch;
    const MapReference::Out& want = ref.out[i];
    ASSERT_EQ(got.progress, want.progress) << "batch " << i;
    ASSERT_EQ(got.keys.size(), want.rows.size()) << "window " << want.progress;
    for (std::size_t j = 0; j < want.rows.size(); ++j) {
      EXPECT_EQ(got.keys[j], want.rows[j].first);
      EXPECT_EQ(got.values[j], want.rows[j].second)
          << "window " << want.progress << " key " << want.rows[j].first;
      EXPECT_EQ(got.times[j], want.progress);
      counted += want.rows[j].second;
    }
  }
  EXPECT_EQ(counter.watermark(), ref.wm);
  EXPECT_EQ(counter.late_dropped(), ref.late);
  EXPECT_EQ(counter.count_emitted(), counted);
  EXPECT_GT(ref.late, 0) << "traffic must include late stragglers";
  EXPECT_TRUE(std::any_of(ref.out.begin(), ref.out.end(),
                          [](const MapReference::Out& o) {
                            return o.rows.empty();
                          }))
      << "traffic must pass window ends that hold no rows";
}

TEST_F(KeyedCounterTest, MatchesMapReference) {
  {
    SCOPED_TRACE("tumbling");
    ExpectMatchesMapReference(WindowSpec::Tumbling(Seconds(1)), 7, 300);
  }
  {
    SCOPED_TRACE("sliding, size 2x slide");
    ExpectMatchesMapReference(WindowSpec::Sliding(Seconds(2), Seconds(1)), 11,
                              300);
  }
  {
    SCOPED_TRACE("sliding, size 3x slide");
    ExpectMatchesMapReference(WindowSpec::Sliding(Seconds(3), Seconds(1)), 17,
                              200);
  }
}

TEST_F(KeyedCounterTest, BooksCloseOnceEveryWindowCloses) {
  KeyedCounterOp op("c", WindowSpec::Tumbling(Seconds(1)), {});
  TestEmitter emitter;
  Rng traffic(123);
  LogicalTime p = 0;
  for (int b = 0; b < 400; ++b) {
    p += traffic.UniformInt(Millis(100), Millis(800));
    std::vector<std::tuple<std::int64_t, double, LogicalTime>> rows;
    const int n = static_cast<int>(traffic.UniformInt(0, 30));
    for (int r = 0; r < n; ++r) {
      // Rotating key population, with some rows late for their window.
      const std::int64_t lo = p / Seconds(4) * 100;
      rows.emplace_back(lo + traffic.UniformInt(0, 99), 1.0,
                        std::max<LogicalTime>(
                            0, p - traffic.UniformInt(0, Millis(1200))));
    }
    Message m = Msg(p, std::move(rows));
    if (traffic.Chance(0.2)) m.batch.synthetic_count = traffic.UniformInt(1, 9);
    auto ctx = Ctx(emitter);
    op.Invoke(m, ctx);
  }
  // Push the watermark past every open window.
  auto ctx = Ctx(emitter);
  op.Invoke(Msg(p + Seconds(5), {}), ctx);
  EXPECT_EQ(op.open_windows(), 0u);
  EXPECT_EQ(op.live_keys(), 0u) << "a key's state goes with its last window";
  EXPECT_GT(op.late_dropped(), 0);
  // Tumbling conservation: every observed row was either counted in an
  // emitted window or dropped late.
  EXPECT_EQ(static_cast<double>(op.rows_seen()),
            op.count_emitted() + static_cast<double>(op.late_dropped()));
}

TEST_F(KeyedCounterTest, KeyReturningAfterItsWindowClosedStartsFromZero) {
  KeyedCounterOp op("c", WindowSpec::Tumbling(Seconds(1)), {});
  TestEmitter emitter;

  auto send = [&](LogicalTime p,
                  std::vector<std::tuple<std::int64_t, double, LogicalTime>>
                      rows) {
    auto ctx = Ctx(emitter);
    op.Invoke(Msg(p, std::move(rows)), ctx);
  };

  send(Millis(500), {{42, 1.0, Millis(400)}, {42, 1.0, Millis(450)}});
  EXPECT_EQ(op.live_keys(), 1u);
  send(Seconds(3), {});  // window 1 s closes
  EXPECT_EQ(op.live_keys(), 0u);

  // The key returns: its count restarts from zero.
  send(Seconds(6) + Millis(300), {{42, 1.0, Seconds(6) + Millis(200)}});
  EXPECT_EQ(op.live_keys(), 1u);
  send(Seconds(8), {});
  std::vector<double> counts;
  for (const CapturedOut& o : emitter.outs) {
    for (std::size_t i = 0; i < o.batch.keys.size(); ++i) {
      if (o.batch.keys[i] == 42) counts.push_back(o.batch.values[i]);
    }
  }
  EXPECT_EQ(counts, (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(op.live_keys(), 0u);
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
  EXPECT_EQ(op.live_keys(), 0u);
}

}  // namespace
}  // namespace cameo
