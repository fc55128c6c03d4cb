// Unit and property tests for src/state: the insert-only SlateStore keyed
// store (Probe/Find/Clear cycles against a std::map reference, deterministic
// sorted emission, growth and capacity reuse) and KeyedCounterOp
// (bit-exact emissions against a std::map reference over tumbling and
// sliding windows, stragglers and synthetic rows; books-close accounting;
// key state that ends with its last window; late-row drops).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "state/keyed_counter.h"
#include "state/slate_store.h"

namespace cameo {
namespace {

// ---------------- SlateStore ----------------

TEST(SlateStoreTest, ProbeFindBasics) {
  SlateStore<double> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), 0u);
  EXPECT_EQ(s.Find(7), nullptr);
  s.Probe(7) += 1.5;
  s.Probe(7) += 1.5;
  ASSERT_NE(s.Find(7), nullptr);
  EXPECT_DOUBLE_EQ(*s.Find(7), 3.0);
  EXPECT_EQ(s.Find(8), nullptr);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.capacity(), SlateStore<double>::kMinCapacity);
  EXPECT_EQ(s.rehashes(), 1u) << "the first table counts as a growth";
}

TEST(SlateStoreTest, ProbeWithInitValue) {
  SlateStore<double> s;
  EXPECT_DOUBLE_EQ(s.Probe(1, 42.0), 42.0);
  // Present key: init is ignored.
  EXPECT_DOUBLE_EQ(s.Probe(1, 99.0), 42.0);
}

TEST(SlateStoreTest, MatchesMapUnderClearCycles) {
  // Randomized Probe/Find cycles, each checked against a std::map and then
  // emptied with Clear(). The first cycles grow across several index
  // doublings; the later, smaller ones must reuse the grown store.
  SlateStore<double> store;
  Rng rng(20240807);
  std::vector<std::int64_t> previous;  // the last cycle's keys
  auto cycle = [&](std::int64_t universe) {
    std::map<std::int64_t, double> ref;
    for (std::int64_t key : previous) ASSERT_EQ(store.Find(key), nullptr);
    for (std::int64_t op = 0; op < 6 * universe; ++op) {
      const std::int64_t key = rng.UniformInt(-universe, universe);
      if (rng.Uniform01() < 0.7) {
        const double v = rng.Uniform(0, 10);
        store.Probe(key) += v;
        ref[key] += v;
      } else {
        const auto it = ref.find(key);
        const double* found = store.Find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(store.size(), ref.size());
    std::vector<std::pair<std::int64_t, double>> got;
    store.AppendSorted(got);
    const std::vector<std::pair<std::int64_t, double>> want(ref.begin(),
                                                           ref.end());
    EXPECT_EQ(got, want) << "same additions per key: bit-identical sums";
    previous.clear();
    for (const auto& [key, value] : want) previous.push_back(key);
    store.Clear();
    EXPECT_TRUE(store.empty());
  };
  for (std::int64_t universe : {100, 300, 1'000, 3'000, 10'000, 30'000}) {
    cycle(universe);
  }
  EXPECT_GE(store.rehashes(), 6u) << "cycles crossed several growths";
  const std::uint64_t rehashes = store.rehashes();
  const std::size_t capacity = store.capacity();
  for (int i = 0; i < 20; ++i) {
    cycle(rng.UniformInt(1, 10'000));
    EXPECT_EQ(store.rehashes(), rehashes) << "cycle " << i;
    EXPECT_EQ(store.capacity(), capacity);
  }
}

TEST(SlateStoreTest, SortedEmissionIndependentOfInsertionOrder) {
  // Stores fed the same final contents via different insertion orders and
  // histories must emit identical sorted sequences.
  SlateStore<double> a;
  SlateStore<double> b;
  SlateStore<double> c;
  for (std::int64_t k = 0; k < 500; ++k) a.Probe(k) = static_cast<double>(k);
  for (std::int64_t k = 499; k >= 0; --k) b.Probe(k) = static_cast<double>(k);
  // c: a larger, unrelated fill, cleared, then refilled in a shuffled order.
  for (std::int64_t k = 0; k < 3000; ++k) c.Probe(k + 1000) = 7;
  c.Clear();
  std::vector<std::int64_t> order;
  for (std::int64_t k = 0; k < 500; ++k) order.push_back(k);
  Rng rng(99);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.UniformInt(
                            0, static_cast<std::int64_t>(i)))]);
  }
  for (std::int64_t k : order) c.Probe(k) = static_cast<double>(k);
  std::vector<std::pair<std::int64_t, double>> ea;
  std::vector<std::pair<std::int64_t, double>> eb;
  std::vector<std::pair<std::int64_t, double>> ec;
  a.AppendSorted(ea);
  b.AppendSorted(eb);
  c.AppendSorted(ec);
  EXPECT_EQ(ea, eb);
  EXPECT_EQ(ea, ec);
  ASSERT_EQ(ea.size(), 500u);
  for (std::size_t i = 1; i < ea.size(); ++i) {
    EXPECT_LT(ea[i - 1].first, ea[i].first);
  }
}

TEST(SlateStoreTest, AppendSortedKeepsExistingOutput) {
  SlateStore<double> s;
  s.Probe(5) = 5;
  s.Probe(-3) = -3;
  std::vector<std::pair<std::int64_t, double>> out = {{100, 1.0}};
  s.AppendSorted(out);
  const std::vector<std::pair<std::int64_t, double>> want = {
      {100, 1.0}, {-3, -3.0}, {5, 5.0}};
  EXPECT_EQ(out, want) << "appends after, and sorts only, the new pairs";
}

TEST(SlateStoreTest, GrowthRehashPreservesContents) {
  SlateStore<double> s;
  const std::int64_t n = 100'000;
  for (std::int64_t k = 0; k < n; ++k) s.Probe(k * 7) = static_cast<double>(k);
  // Growth at 3/4 load, doubling from 512 slots: 512 .. 256Ki is 10 tables.
  // Benches report these counts, so the schedule is pinned.
  EXPECT_EQ(s.capacity(), 256u * 1024u);
  EXPECT_EQ(s.rehashes(), 10u);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    const double* v = s.Find(k * 7);
    ASSERT_NE(v, nullptr);
    EXPECT_DOUBLE_EQ(*v, static_cast<double>(k));
  }
}

TEST(SlateStoreTest, ClearKeepsCapacityAndRestarts) {
  SlateStore<double> s;
  for (std::int64_t k = 0; k < 5000; ++k) s.Probe(k) = 1;
  const std::size_t capacity = s.capacity();
  const std::uint64_t rehashes = s.rehashes();
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), capacity);
  EXPECT_EQ(s.Find(3), nullptr);
  EXPECT_EQ(s.Find(4000), nullptr);
  s.Probe(3) = 9;
  EXPECT_DOUBLE_EQ(*s.Find(3), 9.0);
  EXPECT_EQ(s.size(), 1u);
  for (std::int64_t k = 0; k < 5000; ++k) s.Probe(k) = 1;
  EXPECT_EQ(s.rehashes(), rehashes) << "a same-size refill reuses the index";
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
  MapReference ref{window, {}, {}};
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
