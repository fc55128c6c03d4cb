// Counting-allocator proof of the zero-allocation hot path, plus property
// tests for the recycle stash.
//
// The test binary overrides global operator new/delete with counting
// wrappers; each steady-state test warms the relevant pool/caches, snapshots
// the counter, drives a few thousand more messages (or simulated events) and
// asserts the counter did not move. Runs in the ASan and TSan suites too
// (CMake CAMEO_SAN_SUITES): there the sanitizer checks that recycled storage
// is never aliased by live objects, while the zero-allocation assertions are
// skipped (sanitizer runtimes allocate behind the scenes).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/pool.h"
#include "common/rng.h"
#include "core/context_converter.h"
#include "core/message_step.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/window_agg.h"
#include "sched/cameo_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/orleans_scheduler.h"
#include "sched/slot_scheduler.h"
#include "shard/fault_transport.h"
#include "shard/inproc_transport.h"
#include "shard/session.h"
#include "shard/wire.h"
#include "sim/event_queue.h"
#include "state/keyed_counter.h"

// ---------------------------------------------------------------------------
// Counting global allocator.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::int64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line: were std::free inlined into a caller that got its pointer
// from a (not inlined) operator new, GCC would flag the pair under
// -Wmismatched-new-delete.
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCountingReliable = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kCountingReliable = false;
#else
constexpr bool kCountingReliable = true;
#endif
#else
constexpr bool kCountingReliable = true;
#endif

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace cameo {
namespace {

std::int64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

Message MakeMsg(std::int64_t id, std::int64_t op) {
  Message m;
  m.id = MessageId{id};
  m.target = OperatorId{op};
  m.pc.id = m.id;
  m.pc.pri_global = id;
  m.pc.pri_local = id;
  m.batch = EventBatch::Synthetic(1, id);
  return m;
}

// ---------------------------------------------------------------------------
// Zero heap allocations per steady-state message, every scheduler kind.
// ---------------------------------------------------------------------------

template <typename Sched, typename... Args>
void ExpectZeroAllocSteadyState(std::size_t drain, Args&&... args) {
  Sched sched(std::forward<Args>(args)...);
  constexpr std::int64_t kOps = 13;
  const WorkerId w{0};
  std::int64_t id = 0;
  // Standing backlog so batched drains engage.
  for (int i = 0; i < 64; ++i) {
    sched.Enqueue(MakeMsg(id, id % kOps), WorkerId{}, id);
    ++id;
  }
  // One enqueue -> claim-and-drain -> complete cycle; runs of `drain`
  // messages per operator (batching-client arrival pattern).
  std::vector<Message> stash;
  std::size_t next = 0;
  auto drive = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      const std::int64_t op = (id / static_cast<std::int64_t>(drain)) % kOps;
      sched.Enqueue(MakeMsg(id, op), WorkerId{}, id);
      ++id;
      if (next == stash.size()) {
        stash.clear();
        next = 0;
        ASSERT_GT(sched.DequeueBatch(w, id, drain, stash), 0u);
        sched.OnComplete(stash.front().target, w, id);
      }
      ++next;
    }
  };
  // Warm every cache: mailbox ring/heap capacity, ready-queue heap, pool
  // thread caches, the stash itself.
  drive(4000);
  if (::testing::Test::HasFatalFailure()) return;

  const std::int64_t before = HeapAllocs();
  drive(2000);
  const std::int64_t after = HeapAllocs();
  if (::testing::Test::HasFatalFailure()) return;
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state messages must not touch the heap";
  }
}

TEST(ZeroAllocTest, CameoSchedulerSteadyStateBatchOne) {
  ExpectZeroAllocSteadyState<CameoScheduler>(1);
}

TEST(ZeroAllocTest, CameoSchedulerSteadyStateBatchEight) {
  ExpectZeroAllocSteadyState<CameoScheduler>(8);
}

TEST(ZeroAllocTest, FifoSchedulerSteadyStateBatchOne) {
  ExpectZeroAllocSteadyState<FifoScheduler>(1);
}

TEST(ZeroAllocTest, FifoSchedulerSteadyStateBatchEight) {
  ExpectZeroAllocSteadyState<FifoScheduler>(8);
}

TEST(ZeroAllocTest, OrleansSchedulerSteadyStateBatchOne) {
  ExpectZeroAllocSteadyState<OrleansScheduler>(1);
}

TEST(ZeroAllocTest, OrleansSchedulerSteadyStateBatchEight) {
  ExpectZeroAllocSteadyState<OrleansScheduler>(8);
}

// One slot, so worker 0 owns every operator.
TEST(ZeroAllocTest, SlotSchedulerSteadyStateBatchOne) {
  ExpectZeroAllocSteadyState<SlotScheduler>(1, 1);
}

TEST(ZeroAllocTest, SlotSchedulerSteadyStateBatchEight) {
  ExpectZeroAllocSteadyState<SlotScheduler>(8, 1);
}

TEST(ZeroAllocTest, EventQueueSteadyState) {
  EventQueue q;
  std::int64_t ran = 0;
  std::int64_t scheduled = 0;
  // Warm the key heap, the action slots and the free-slot list to their
  // peak depth, with near and far-ahead events interleaved.
  auto drive = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      q.Schedule(q.now() + (i % 7) * Micros(60), [&ran] { ++ran; });
      ++scheduled;
      if (i % 16 == 0) {
        q.Schedule(q.now() + Seconds(1), [&ran] { ++ran; });
        ++scheduled;
        q.RunNext();
      }
      q.RunNext();
    }
    while (!q.empty()) q.RunNext();
  };
  drive(6000);

  const std::int64_t before = HeapAllocs();
  drive(3000);
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(ran, scheduled);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state simulated events must not touch the heap";
  }
}

// The fixed-delay lanes keep their storage too: ~130 pending events in the
// simulator's mix (delay 0, the lane delay, and far-ahead delays that take
// the heap), one scheduled per event run. The lane-delay lane stays busy
// throughout, so this pins RingQueue's in-place compaction.
TEST(ZeroAllocTest, EventQueueLaneSteadyState) {
  constexpr int kDepth = 130;
  const Duration lane = EventQueue::kLaneDelays[1];
  EventQueue q;
  std::int64_t ran = 0;
  std::int64_t scheduled = 0;
  auto schedule = [&](int i) {
    Duration delay = 0;
    switch (i % 8) {
      case 0:
      case 1:
        break;  // the wake-up sweep's delay 0
      case 2:
      case 3:
      case 4:
        delay = lane;
        break;
      default:
        delay = Micros(10) + (i * 7919 % 500) * Micros(10);
        break;
    }
    q.Schedule(q.now() + delay, [&ran] { ++ran; });
    ++scheduled;
  };
  for (int i = 0; i < kDepth; ++i) schedule(i);
  auto drive = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      schedule(i);
      q.RunNext();
    }
  };
  drive(20000);

  const std::int64_t before = HeapAllocs();
  drive(20000);
  const std::int64_t after = HeapAllocs();
  while (!q.empty()) q.RunNext();
  EXPECT_EQ(ran, scheduled);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state lane events must not touch the heap";
  }
}

TEST(ZeroAllocTest, ColumnarBatchRecycleSteadyState) {
  auto cycle = [](std::int64_t seed) {
    EventBatch b;
    for (int i = 0; i < 256; ++i) {
      b.Append(seed + i, static_cast<double>(i), seed + i);
    }
    std::int64_t sum = 0;
    for (std::int64_t k : b.keys) sum += k;
    b.Recycle();
    return sum;
  };
  for (int i = 0; i < 64; ++i) cycle(i);  // warm the column stash

  const std::int64_t before = HeapAllocs();
  std::int64_t sum = 0;
  for (int i = 0; i < 512; ++i) sum += cycle(i);
  const std::int64_t after = HeapAllocs();
  EXPECT_NE(sum, 0);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "recycled column buffers must satisfy steady-state Appends";
  }
}

TEST(ZeroAllocTest, WireCodecEncodeShipDecodeSteadyState) {
  // The full inter-shard cycle: build a columnar message, encode it into a
  // recycled frame, decode into a fresh message that adopts pooled columns,
  // recycle everything. Frame buffers ride the RecycleStash, columns ride
  // the column pool -- once both are warm, zero heap allocations per message.
  auto cycle = [](std::int64_t seed) {
    cameo::Message m;
    m.id = cameo::MessageId{seed};
    m.target = cameo::OperatorId{seed % 64};
    m.pc.id = m.id;
    m.pc.pri_global = seed;
    m.batch.progress = seed;
    for (int i = 0; i < 128; ++i) {
      m.batch.Append(seed + i, static_cast<double>(i), seed + i);
    }
    cameo::shard::WireFrame frame = cameo::shard::AcquireFrame();
    cameo::shard::EncodeMessage(m, frame);
    cameo::Message out;
    CAMEO_CHECK(cameo::shard::DecodeMessage(frame, out));
    const std::int64_t tag = out.batch.keys.empty() ? 0 : out.batch.keys[0];
    cameo::shard::ReleaseFrame(std::move(frame));
    out.batch.Recycle();
    m.batch.Recycle();
    return tag;
  };
  for (int i = 0; i < 64; ++i) cycle(i);  // warm frame stash + column pool

  const std::int64_t before = HeapAllocs();
  std::int64_t sum = 0;
  constexpr int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) sum += cycle(i);
  const std::int64_t after = HeapAllocs();
  EXPECT_NE(sum, 0);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state encode->ship->decode must not touch the heap "
        << "(allocs/msg = "
        << static_cast<double>(after - before) / kMessages << ")";
  }
}

TEST(ZeroAllocTest, InprocTransportSteadyState) {
  // Two shards trade frames both ways over a jittered link, each channel
  // held at a constant depth of kDepth frames in flight. Once the frame
  // stash and each channel's queue are warm, a Send plus a Receive touches
  // no heap.
  cameo::shard::InprocTransport link(
      {.base = cameo::Millis(1), .jitter = cameo::Micros(100)}, /*seed=*/7);
  link.Start(2);
  cameo::Message m;
  for (int i = 0; i < 16; ++i) m.batch.Append(i, 1.0, i);
  constexpr int kDepth = 48;
  SimTime now = 0;
  auto send_both = [&] {
    now += cameo::Micros(10);
    for (int s = 0; s < 2; ++s) {
      cameo::shard::WireFrame f = cameo::shard::AcquireFrame();
      cameo::shard::EncodeMessage(m, f);
      link.Send(s, 1 - s, now, std::move(f));
    }
  };
  auto drive = [&](int steps) {
    cameo::shard::WireFrame frame;
    for (int i = 0; i < steps; ++i) {
      send_both();
      for (int s = 0; s < 2; ++s) {
        CAMEO_CHECK(link.Receive(s, kTimeMax, frame));
        cameo::shard::ReleaseFrame(std::move(frame));
      }
    }
  };
  for (int i = 0; i < kDepth; ++i) send_both();
  drive(2000);  // warm the frame stash and both queues
  constexpr int kSteps = 20'000;
  const std::int64_t before = HeapAllocs();
  drive(kSteps);
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(link.stats().in_flight(), 2u * kDepth);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "allocs per frame = "
        << static_cast<double>(after - before) / (2.0 * kSteps);
  }
  m.batch.Recycle();
}

// ---------------------------------------------------------------------------
// Session layer: out-of-order frames park in the reorder ring, not the heap.
// ---------------------------------------------------------------------------

/// Passes frames through to `inner`, tallying the heap allocations made
/// inside it, so a test can tell the session's own allocations from the
/// transport's (whose queues grow to each new in-flight peak).
class AllocFenceTransport final : public cameo::shard::Transport {
 public:
  using Transport::Receive;

  explicit AllocFenceTransport(cameo::shard::Transport* inner)
      : inner_(inner) {}

  void Start(int num_shards) override { inner_->Start(num_shards); }
  SimTime Send(int from, int to, SimTime now,
               cameo::shard::WireFrame frame) override {
    const std::int64_t before = HeapAllocs();
    const SimTime at = inner_->Send(from, to, now, std::move(frame));
    inner_allocs += HeapAllocs() - before;
    return at;
  }
  bool Receive(int to, SimTime now, cameo::shard::WireFrame& out,
               int& from) override {
    const std::int64_t before = HeapAllocs();
    const bool got = inner_->Receive(to, now, out, from);
    inner_allocs += HeapAllocs() - before;
    return got;
  }
  cameo::shard::TransportStats stats() const override {
    return inner_->stats();
  }
  std::string name() const override { return "alloc-fence"; }

  std::int64_t inner_allocs = 0;

 private:
  cameo::shard::Transport* inner_;
};

TEST(ZeroAllocTest, SessionReceiveUnderDropDupSteadyState) {
  // Two shards trade 16-row data frames both ways over a 1 ms link with 1%
  // drops and 1% duplicates. Every drop parks the frames behind it in the
  // receiver's reorder ring until the fast retransmit lands. Once the frame
  // stash is warm, the session's receive path -- acks, SACK bookkeeping,
  // fast retransmits, the ring -- allocates nothing per frame it parks (a
  // std::map reorder buffer allocated a node for each).
  cameo::shard::InprocTransport link(
      {.base = cameo::Millis(1), .jitter = cameo::Micros(100)}, /*seed=*/5);
  cameo::shard::FaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.01;
  plan.dup_rate = 0.01;
  cameo::shard::FaultInjectingTransport faulty(&link, plan);
  AllocFenceTransport fence(&faulty);
  cameo::shard::SessionConfig cfg;
  cfg.enabled = true;
  cameo::shard::SessionLayer session(cfg, &fence);
  fence.Start(2);
  session.Start(2);

  cameo::Message m;
  for (int i = 0; i < 16; ++i) m.batch.Append(i, 1.0, i);
  SimTime now = 0;
  std::int64_t session_allocs = 0;
  auto drive = [&](int steps) {
    cameo::shard::WireFrame frame;
    int from = -1;
    for (int i = 0; i < steps; ++i) {
      now += cameo::Micros(100);
      for (int s = 0; s < 2; ++s) {
        cameo::shard::WireFrame f = cameo::shard::AcquireFrame();
        cameo::shard::EncodeMessage(m, f);
        session.Send(s, 1 - s, now, std::move(f));
      }
      for (int s = 0; s < 2; ++s) {
        session.Service(s, now, nullptr);
        const std::int64_t before = HeapAllocs();
        const std::int64_t inner_before = fence.inner_allocs;
        while (session.Receive(s, now, frame, from)) {
          cameo::shard::ReleaseFrame(std::move(frame));
        }
        session_allocs += (HeapAllocs() - before) -
                          (fence.inner_allocs - inner_before);
      }
    }
  };
  drive(20'000);  // warm: 2 s of virtual traffic
  session_allocs = 0;
  const cameo::shard::TransportStats warm = session.stats();
  drive(20'000);
  const cameo::shard::TransportStats done = session.stats();
  const std::uint64_t parked = done.out_of_order - warm.out_of_order;
  EXPECT_GT(parked, 1000u);  // the ring really was exercised
  EXPECT_GT(done.fast_retransmits, warm.fast_retransmits);
  if (kCountingReliable) {
    EXPECT_EQ(session_allocs, 0)
        << "allocs per out-of-order frame = "
        << static_cast<double>(session_allocs) / static_cast<double>(parked);
  }
  m.batch.Recycle();
}

// ---------------------------------------------------------------------------
// Windowed aggregation: a million keys in one window, zero allocations per
// message.
// ---------------------------------------------------------------------------

/// Recycles every emitted batch back into the column stash, mirroring what
/// the runtime does after a sink consumes a message.
class DrainEmitter final : public Emitter {
 public:
  void Emit(int /*port*/, EventBatch batch, SimTime /*event_time*/) override {
    ++emitted;
    batch.Recycle();
  }
  std::int64_t emitted = 0;
};

/// Drives `op` with one columnar batch of `keys` rows (ids `base + i`), all
/// stamped `p`, then recycles the input batch -- the runtime's steady-state
/// message lifecycle.
void DriveKeyedBatch(Operator& op, InvokeContext& ctx, std::int64_t& id,
                     std::int64_t base, std::int64_t keys, LogicalTime p) {
  Message m;
  m.id = MessageId{id++};
  m.sender = OperatorId{1};
  m.batch.progress = p;
  for (std::int64_t i = 0; i < keys; ++i) m.batch.Append(base + i, 1.0, p);
  op.Invoke(m, ctx);
  m.batch.Recycle();
}

TEST(ZeroAllocTest, KeyedCounterMillionKeySteadyState) {
  // One tumbling window holds 1M distinct keys at a time: every window is
  // filled with the whole key set, then closed by the first batch of the
  // next, emitting 1M rows. The first windows grow the per-key store and
  // the emission buffers; later windows reuse the recycled store with its
  // capacity and must not touch the heap.
  constexpr std::int64_t kKeys = 1 << 20;  // 1,048,576 keys per window
  constexpr std::int64_t kBatch = 512;
  constexpr LogicalTime kStride = 64;
  constexpr LogicalTime kWindow = kKeys / kBatch * kStride;
  KeyedCounterOp op("slates", WindowSpec::Tumbling(kWindow), {0, 0, 0.0});
  DrainEmitter emitter;
  Rng rng(7);
  InvokeContext ctx{0, &emitter, &rng};
  std::int64_t id = 0;
  auto fill = [&](LogicalTime window_start) {
    for (std::int64_t base = 0; base < kKeys; base += kBatch) {
      DriveKeyedBatch(op, ctx, id, base, kBatch,
                      window_start + 1 + base / kBatch * kStride);
    }
    ASSERT_EQ(op.live_keys(), static_cast<std::size_t>(kKeys));
  };
  fill(0);
  fill(kWindow);
  fill(2 * kWindow);

  const std::int64_t before = HeapAllocs();
  const std::int64_t emitted_before = emitter.emitted;
  fill(3 * kWindow);
  fill(4 * kWindow);
  const std::int64_t after = HeapAllocs();
  EXPECT_GT(emitter.emitted, emitted_before) << "windows closed while measured";
  EXPECT_EQ(op.count_emitted(), static_cast<double>(4 * kKeys));
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state keyed-counter messages must not touch the heap";
  }
}

TEST(ZeroAllocTest, KeyedCounterKeyChurnSteadyState) {
  // Fresh keys every batch while windows keep closing: each window's keys
  // go with it, and the recycled window stores take the next ones without
  // growing.
  KeyedCounterOp op("churn", WindowSpec::Tumbling(256), {0, 0, 0.0});
  DrainEmitter emitter;
  Rng rng(11);
  InvokeContext ctx{0, &emitter, &rng};
  std::int64_t id = 0;
  LogicalTime p = 0;
  std::int64_t base = 0;
  auto drive = [&](int batches) {
    for (int i = 0; i < batches; ++i) {
      p += 64;
      DriveKeyedBatch(op, ctx, id, base, 256, p);
      base += 256;  // fresh keys every batch
    }
  };
  drive(4000);
  const std::size_t population = op.live_keys();

  const std::int64_t before = HeapAllocs();
  drive(2000);
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(op.live_keys(), population) << "key churn must hold steady";
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "key churn must recycle window stores, not allocate";
  }
}

TEST(ZeroAllocTest, WindowAggSteadyState) {
  // The LS aggregation shape: a non-keyed kSum over tumbling windows that
  // open and close every few batches. Closed windows' states are recycled,
  // so opening a window costs no allocation.
  WindowAggOp op("sum", WindowSpec::Tumbling(256), {0, 0, 0.0},
                 AggKind::kSum);
  DrainEmitter emitter;
  Rng rng(13);
  InvokeContext ctx{0, &emitter, &rng};
  std::int64_t id = 0;
  LogicalTime p = 0;
  auto drive = [&](int batches) {
    for (int i = 0; i < batches; ++i) {
      p += 64;
      DriveKeyedBatch(op, ctx, id, 0, 64, p);
    }
  };
  drive(256);

  const std::int64_t before = HeapAllocs();
  const std::int64_t emitted_before = emitter.emitted;
  drive(2000);
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(emitter.emitted - emitted_before, 500) << "one output per window";
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "opening and closing windows must not touch the heap";
  }
}

TEST(ZeroAllocTest, EventTimeConverterFanOutFourSteadyState) {
  // An event-time converter feeding four windowed targets, so every
  // conversion updates and queries the PROGRESSMAP fit. Once each target has
  // replied once, converting, acking and preparing the upstream reply
  // overwrite the same RC entries and the same fit ring.
  LeastLaxityFirst llf;
  ConverterOptions opts;
  opts.time_domain = TimeDomain::kEventTime;
  ContextConverter conv(&llf, opts);
  SourceOp self("src", CostModel{});
  self.Bind(OperatorId{0}, StageId{0}, JobId{0});
  std::vector<std::unique_ptr<WindowAggOp>> targets;
  for (int i = 0; i < 4; ++i) {
    targets.push_back(std::make_unique<WindowAggOp>(
        "agg", WindowSpec::Tumbling(Millis(100) * (i + 1)), CostModel{},
        AggKind::kSum));
    targets.back()->Bind(OperatorId{1 + i}, StageId{1}, JobId{0});
  }
  PriorityContext up;
  up.job = JobId{0};
  up.latency_constraint = Millis(800);
  std::int64_t id = 0;
  Duration path = 0;
  auto drive = [&](int iters) {
    for (int i = 0; i < iters; ++i, ++id) {
      const Operator& target = *targets[static_cast<std::size_t>(id % 4)];
      const LogicalTime p = Millis(1) * id;
      conv.BuildCxtAtOperator(up, self, target, p, p + Millis(20),
                              MessageId{id});
      ReplyContext rc;
      rc.valid = true;
      rc.cost_m = Micros(id % 50);
      rc.cost_path = Micros(id % 7);
      conv.ProcessCtxFromReply(target.id(), rc);
      path = conv.PrepareReply(Micros(3), 0, /*is_sink=*/false).cost_path;
    }
  };
  drive(4);  // one reply per target

  const std::int64_t before = HeapAllocs();
  drive(4000);
  const std::int64_t after = HeapAllocs();
  EXPECT_TRUE(conv.progress_map().model().Ready());
  EXPECT_GT(path, 0);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state conversions and replies must not touch the heap";
  }
}

// ---------------------------------------------------------------------------
// The shared message step with a columnar source: SourceOp -> kKeyHash ->
// per-key WindowAgg -> sink, every message through RunMessageStep.
// ---------------------------------------------------------------------------

/// Volume books with LatencyRecorder's step-facing signatures and no
/// allocation.
struct CountingRecorder {
  std::int64_t processed = 0;
  std::int64_t sink_tuples = 0;
  std::int64_t sink_outputs = 0;
  void OnSourceEvent(JobId, LogicalTime, SimTime) {}
  void OnProcessed(JobId, std::int64_t tuples, SimTime) {
    processed += tuples;
  }
  void OnSinkOutput(JobId, LogicalTime, SimTime) { ++sink_outputs; }
  void OnSinkTuples(JobId, std::int64_t tuples) {
    sink_tuples += tuples;
  }
};

/// A single-threaded backend for RunMessageStep: delivered messages queue
/// FIFO and run in turn, replies reach the sender's converter at once.
class StepLoop {
 public:
  static constexpr LogicalTime kWindow = 256;
  static constexpr LogicalTime kStride = 16;  // progress per source message

  /// `split` is the source edge's hot-key split factor (kKeyHash only).
  StepLoop(Partition edge, int replicas, int split = 1) {
    const JobId job = graph_.AddJob({.name = "j",
                                     .latency_constraint = Millis(10),
                                     .time_domain = TimeDomain::kEventTime,
                                     .output_window = kWindow,
                                     .output_slide = kWindow});
    const StageId src = graph_.AddStage(job, "src", 1, [](int) {
      return std::make_unique<SourceOp>("src", CostModel{});
    });
    const StageId agg = graph_.AddStage(job, "agg", replicas, [](int) {
      return std::make_unique<WindowAggOp>("agg", WindowSpec::Tumbling(kWindow),
                                           CostModel{}, AggKind::kSum,
                                           /*per_key=*/true);
    });
    const StageId sink = graph_.AddStage(job, "sink", 1, [](int) {
      return std::make_unique<SinkOp>("sink", CostModel{});
    });
    graph_.Connect(src, agg, edge, split);
    graph_.Connect(agg, sink, Partition::kShard);
    source_ = graph_.stage(src).operators[0];
    ConverterOptions options;
    options.time_domain = TimeDomain::kEventTime;
    converters_.resize(graph_.operator_count());
    for (auto& c : converters_) {
      c = std::make_unique<ContextConverter>(policy_.get(), options);
    }
    policy_->BindCostReader(&profiler_);
  }

  /// A columnar source message of `rows` rows; the batch adopts pooled
  /// columns, as an ingestion driver's does.
  Message SourceMsg(std::int64_t rows) {
    p_ += kStride;
    EventBatch batch;
    batch.progress = p_;
    for (std::int64_t i = 0; i < rows; ++i) {
      batch.Append((next_key_++ * 7919) % 1000, 1.0, p_);
    }
    const SourceEvent e{.p = p_, .t = p_};
    const Operator& op = graph_.Get(source_);
    return SourceMessage(rec_, converter(source_), op,
                         graph_.job(op.job()), e, NextId(), std::move(batch));
  }

  /// One step of `m`; its deliveries queue for Drain.
  void Step(Message& m) {
    Hooks hooks{*this};
    RunMessageStep(StepTables{graph_, profiler_, outs_, routed_, rng_}, hooks,
                   m, converter(m.target), *policy_);
  }

  /// Steps every queued delivery, and what they deliver, to quiescence.
  void Drain() {
    while (!pending_.empty()) {
      std::swap(pending_, running_);
      for (Message& m : running_) Step(m);
      running_.clear();
    }
  }

  /// Ingests `n` source messages of `rows` rows each, draining after each.
  void Run(int n, std::int64_t rows) {
    for (int i = 0; i < n; ++i) {
      Message m = SourceMsg(rows);
      Step(m);
      Drain();
    }
  }

  std::vector<Message>& pending() { return pending_; }
  const CountingRecorder& latency() const { return rec_; }

 private:
  struct Hooks {
    StepLoop& loop;
    SimTime InvokeStart() { return loop.p_; }
    StepClock InvokeEnd(const Operator&, std::int64_t, SimTime start) {
      return {.cost = Micros(1), .now = start, .dequeued = start};
    }
    MessageId NextId() { return loop.NextId(); }
    void Deliver(Message md) { loop.pending_.push_back(std::move(md)); }
    void Reply(OperatorId sender, OperatorId from, const ReplyContext& rc) {
      loop.converter(sender).ProcessCtxFromReply(from, rc);
    }
    CountingRecorder& latency() { return loop.rec_; }
  };

  MessageId NextId() { return MessageId{next_id_++}; }
  ContextConverter& converter(OperatorId op) {
    return *converters_[static_cast<std::size_t>(op.value)];
  }

  DataflowGraph graph_;
  OperatorId source_;
  std::unique_ptr<SchedulingPolicy> policy_ = MakePolicy("LLF");
  CostProfiler profiler_;
  std::vector<std::unique_ptr<ContextConverter>> converters_;
  std::vector<EmittedBatch> outs_;
  std::vector<DataflowGraph::Delivery> routed_;
  std::vector<Message> pending_, running_;
  Rng rng_{5};
  CountingRecorder rec_;
  std::int64_t next_id_ = 0;
  std::int64_t next_key_ = 0;
  LogicalTime p_ = 0;
};

void ExpectZeroAllocColumnarSteps(int split) {
  // The source forwards its batch by move: no column copy per message, and
  // every column set the step recycles is adopted again by the next
  // source batch or key-hash split, so the stash neither leaks nor drains.
  StepLoop loop(Partition::kKeyHash, 2, split);
  constexpr std::int64_t kRows = 64;
  loop.Run(2000, kRows);

  const std::int64_t before = HeapAllocs();
  const CountingRecorder books = loop.latency();
  loop.Run(2000, kRows);
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(loop.latency().processed - books.processed, 2000 * kRows);
  EXPECT_EQ(loop.latency().sink_outputs - books.sink_outputs,
            2 * 2000 * StepLoop::kStride / StepLoop::kWindow)
      << "one output per closed window and agg replica";
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state columnar source messages must not touch the heap ("
        << static_cast<double>(after - before) / 2000 << " per message)";
  }
}

TEST(ZeroAllocTest, ColumnarSourceMessageStepSteadyState) {
  ExpectZeroAllocColumnarSteps(/*split=*/1);
}

TEST(ZeroAllocTest, ColumnarSourceMessageStepHotKeySplitSteadyState) {
  // A split > 1 edge runs the hot-key frequency pass on every batch; its
  // table is reused scratch, not a fresh store per routed batch.
  ExpectZeroAllocColumnarSteps(/*split=*/2);
}

TEST(MessageStepTest, SourceForwardsItsInputUnchanged) {
  StepLoop loop(Partition::kOneToOne, 1);
  Message m = loop.SourceMsg(100);
  const EventBatch want = m.batch;
  loop.Step(m);
  EXPECT_EQ(m.batch.size(), 0) << "the step hands the columns on";
  EXPECT_EQ(loop.latency().processed, 100) << "volume counts pre-invoke rows";
  ASSERT_EQ(loop.pending().size(), 1u);
  const EventBatch& got = loop.pending()[0].batch;
  EXPECT_EQ(got.keys, want.keys);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.times, want.times);
  EXPECT_EQ(got.progress, want.progress);
  EXPECT_EQ(got.synthetic_count, 0);
}

// ---------------------------------------------------------------------------
// Registration cost does not grow with the graph.
// ---------------------------------------------------------------------------

TEST(RegistrationAllocTest, AddStageAndConnectCostStaysFlat) {
  // Splicing a stage into a large graph allocates no more than splicing one
  // into a small graph: the tables grow in place instead of copying the
  // topology per mutation, so registering N stages is linear in N.
  DataflowGraph g;
  const JobId job = g.AddJob({.name = "j"});
  const OperatorFactory factory = [](int) {
    return std::make_unique<SinkOp>("s", CostModel{});
  };
  StageId prev = g.AddStage(job, "s", 1, factory);
  std::vector<std::int64_t> allocs;  // allocs[n - 1]: stage n
  allocs.reserve(256);
  for (int n = 1; n <= 256; ++n) {
    const std::int64_t before = HeapAllocs();
    const StageId next = g.AddStage(job, "s", 1, factory);
    g.Connect(prev, next, Partition::kOneToOne);
    allocs.push_back(HeapAllocs() - before);
    prev = next;
  }
  ASSERT_EQ(g.stages_of(job).size(), 257u);
  auto sum = [&](std::size_t first, std::size_t last) {
    std::int64_t total = 0;
    for (std::size_t n = first; n <= last; ++n) total += allocs[n - 1];
    return total;
  };
  const std::int64_t early = sum(1, 16);
  const std::int64_t late = sum(241, 256);
  if (kCountingReliable) {
    EXPECT_GT(early, 0);
    EXPECT_LE(late, early) << "stages 241-256 allocated " << late
                           << " blocks, stages 1-16 only " << early;
  }
}

// ---------------------------------------------------------------------------
// RecycleStash property tests, over the std::unique_ptr<T> shape the mailbox
// and transport inbox nodes recycle through.
// ---------------------------------------------------------------------------

struct Payload {
  std::int64_t value = 0;
  std::int64_t canary = 0;
  void Set(std::int64_t v) {
    value = v;
    canary = ~v;
  }
};

/// Takes a parked object, or makes one on a miss (what Mailbox::Push does).
template <typename T>
std::unique_ptr<T> TakeOrMake(std::atomic<std::int64_t>* made = nullptr) {
  std::unique_ptr<T> p = RecycleStash<std::unique_ptr<T>>::Global().Take()
                             .value_or(nullptr);
  if (p != nullptr) return p;
  if (made != nullptr) made->fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<T>();
}

TEST(RecycleStashTest, TakenObjectsArePairwiseDistinct) {
  auto& stash = RecycleStash<std::unique_ptr<Payload>>::Global();
  // Two rounds: the first mostly makes fresh objects, the second takes back
  // the ones the first parked. Neither may hand out an object twice.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::unique_ptr<Payload>> live;
    std::set<const Payload*> addresses;
    for (std::int64_t i = 0; i < 1000; ++i) {
      std::unique_ptr<Payload> p = TakeOrMake<Payload>();
      ASSERT_TRUE(addresses.insert(p.get()).second)
          << "stash handed out a live object (round " << round << ")";
      p->Set(i);
      live.push_back(std::move(p));
    }
    for (std::int64_t i = 0; i < 1000; ++i) {
      EXPECT_EQ(live[static_cast<std::size_t>(i)]->value, i);
      EXPECT_EQ(live[static_cast<std::size_t>(i)]->canary, ~i);
    }
    for (std::unique_ptr<Payload>& p : live) stash.Put(std::move(p));
  }
}

struct HandoffPayload : Payload {};

TEST(RecycleStashTest, OneWayHandoffRecyclesWithinABoundedSet) {
  // The mailbox's shape: one thread only Takes (making an object on a
  // miss) and hands each object to a second thread that only Puts. Objects
  // must flow back through the global spillover: none is live twice, and
  // the number ever made is bounded by what can be parked or in flight, not
  // by the number handed over.
  using Stash = RecycleStash<std::unique_ptr<HandoffPayload>>;
  constexpr std::int64_t kCount = 100000;
  constexpr std::size_t kWindow = 256;  // in-flight objects, at most
  std::mutex mu;
  std::deque<HandoffPayload*> window;    // FIFO; guarded by mu
  std::set<const HandoffPayload*> live;  // guarded by mu
  std::atomic<std::int64_t> made{0};
  std::atomic<bool> aliased{false};
  std::atomic<bool> torn{false};

  std::thread producer([&] {
    for (std::int64_t i = 0; i < kCount;) {
      bool full = false;
      {
        std::lock_guard lock(mu);
        full = window.size() >= kWindow;
      }
      if (full) {
        std::this_thread::yield();
        continue;
      }
      std::unique_ptr<HandoffPayload> p = TakeOrMake<HandoffPayload>(&made);
      p->Set(i);
      std::lock_guard lock(mu);
      if (!live.insert(p.get()).second) aliased = true;
      window.push_back(p.release());
      ++i;
    }
  });
  std::thread consumer([&] {
    for (std::int64_t i = 0; i < kCount;) {
      HandoffPayload* p = nullptr;
      {
        std::lock_guard lock(mu);
        if (!window.empty()) {
          p = window.front();
          window.pop_front();
          live.erase(p);
        }
      }
      if (p == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (p->value != i || p->canary != ~i) torn = true;
      Stash::Global().Put(std::unique_ptr<HandoffPayload>(p));
      ++i;
    }
  });
  producer.join();
  consumer.join();

  EXPECT_FALSE(aliased.load()) << "an object was live twice";
  EXPECT_FALSE(torn.load()) << "a handed-over object changed in flight";
  // A miss means the producer's cache and the spillover were both dry, so
  // every object then existing sat in the window, in the consumer's hand or
  // in the consumer's cache (at most kTlsMax; a Put at the cap spills
  // kTransfer first).
  const std::int64_t bound =
      static_cast<std::int64_t>(kWindow + Stash::kTlsMax) + 2;
  EXPECT_GT(made.load(), 0);
  EXPECT_LE(made.load(), bound) << "made " << made.load() << " objects for "
                                << kCount << " handovers";
}

TEST(RecycleStashTest, RecycledBatchColumnsDoNotAliasLiveBatches) {
  // A live columnar batch and a recycled-then-adopted one must never share
  // buffers: mutate one, verify the other.
  EventBatch a;
  for (int i = 0; i < 64; ++i) a.Append(i, 1.0, i);
  EventBatch b;
  for (int i = 0; i < 64; ++i) b.Append(100 + i, 2.0, i);
  b.Recycle();
  EventBatch c;
  c.Append(7, 3.0, 7);  // adopts b's recycled buffers (or fresh ones)
  ASSERT_NE(c.keys.data(), a.keys.data());
  c.keys[0] = -1;
  EXPECT_EQ(a.keys[0], 0);
  EXPECT_EQ(a.keys[63], 63);
  a.Recycle();
  c.Recycle();
}

TEST(RecycleStashTest, PutTakeRoundTripsAcrossThreads) {
  using Stash = RecycleStash<std::vector<int>>;
  auto& stash = Stash::Global();
  std::vector<std::thread> threads;
  std::atomic<int> taken{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        std::vector<int> v;
        if (auto got = stash.Take()) v = std::move(*got);
        v.clear();
        v.push_back(i);
        taken.fetch_add(static_cast<int>(v.capacity() > 0));
        stash.Put(std::move(v));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(taken.load(), 4 * 2000);
}

}  // namespace
}  // namespace cameo
