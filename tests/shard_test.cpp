// The src/shard/ subsystem: placement, wire codec, transports, ShardRuntime,
// and the sharded cluster's cross-shard contracts.
//
// The wire-codec sections are the randomized round-trip property suite of
// the codec's decode-is-defensive contract: encode -> decode must be
// bit-identical, and truncated/corrupted/misdirected frames must be
// rejected without touching the output message and without leaking pooled
// buffers (both sanitizer legs run this suite; ASan's leak checker is what
// turns "no leak" into a hard failure).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "api/sim_engine.h"
#include "bench_util/scenarios.h"
#include "common/rng.h"
#include "dataflow/graph.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "shard/fault_transport.h"
#include "shard/inproc_transport.h"
#include "shard/placement.h"
#include "shard/session.h"
#include "shard/shard_runtime.h"
#include "shard/wire.h"
#include "state/slate_store.h"

namespace cameo::shard {
namespace {

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

TEST(Placement, SingleShardOwnsEverything) {
  ShardPlacement p(1, /*seed=*/7);
  for (std::int64_t v = 0; v < 1000; ++v) {
    EXPECT_EQ(p.ShardOf(OperatorId{v}), 0);
  }
}

TEST(Placement, DeterministicAcrossInstances) {
  ShardPlacement a(4, /*seed=*/11);
  ShardPlacement b(4, /*seed=*/11);
  for (std::int64_t v = 0; v < 10'000; ++v) {
    ASSERT_EQ(a.ShardOf(OperatorId{v}), b.ShardOf(OperatorId{v})) << v;
  }
}

TEST(Placement, SeedChangesLayout) {
  ShardPlacement a(4, /*seed=*/1);
  ShardPlacement b(4, /*seed=*/2);
  int moved = 0;
  for (std::int64_t v = 0; v < 10'000; ++v) {
    if (a.ShardOf(OperatorId{v}) != b.ShardOf(OperatorId{v})) ++moved;
  }
  EXPECT_GT(moved, 1000);  // different seed => a genuinely different ring
}

TEST(Placement, BalancedAndCoversAllShards) {
  constexpr int kShards = 8;
  constexpr std::int64_t kOps = 20'000;
  ShardPlacement p(kShards, /*seed=*/3);
  std::vector<int> load(kShards, 0);
  for (std::int64_t v = 0; v < kOps; ++v) ++load[p.ShardOf(OperatorId{v})];
  const double mean = static_cast<double>(kOps) / kShards;
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(load[s], 0) << "shard " << s << " owns nothing";
    // kVirtualNodes = 64 keeps max/mean under ~1.3; gate with headroom.
    EXPECT_LT(load[s], mean * 1.6) << "shard " << s << " overloaded";
  }
}

TEST(Placement, StableUnderGrowth) {
  constexpr std::int64_t kOps = 20'000;
  ShardPlacement before(4, /*seed=*/5);
  ShardPlacement after(5, /*seed=*/5);
  int moved = 0;
  for (std::int64_t v = 0; v < kOps; ++v) {
    const int b = before.ShardOf(OperatorId{v});
    const int a = after.ShardOf(OperatorId{v});
    if (a != b) {
      ++moved;
      // Consistent hashing: a relocated operator moves *to the new shard*;
      // operators never shuffle between surviving shards.
      EXPECT_EQ(a, 4) << "operator " << v << " moved between old shards";
    }
  }
  // Expected relocation is ~1/5 of the keys; gate well above the mean but
  // far below the ~4/5 a mod-N rehash would move.
  EXPECT_LT(moved, kOps * 2 / 5);
  EXPECT_GT(moved, 0);
}

// ShardOf's jump-table scan must return exactly what a binary search over
// the ring returns. The reference rebuilds the ring from its definition
// (kVirtualNodes points per shard, KeyMix of the seeded point id) and runs
// std::lower_bound, the lookup the jump table replaced.
TEST(Placement, JumpTableMatchesRingBinarySearch) {
  constexpr std::int64_t kIds = 1'000'000;
  for (int shards : {2, 3, 4, 8, 16}) {
    for (std::uint64_t seed : {1ULL, 9001ULL, 0xC0FFEEULL}) {
      std::vector<std::pair<std::uint64_t, int>> ring;
      for (int s = 0; s < shards; ++s) {
        for (int v = 0; v < ShardPlacement::kVirtualNodes; ++v) {
          const auto id =
              static_cast<std::uint64_t>(s) * ShardPlacement::kVirtualNodes +
              static_cast<std::uint64_t>(v);
          ring.emplace_back(KeyMix(static_cast<std::int64_t>(
                                id ^ (seed * 0x9E3779B97F4A7C15ULL))),
                            s);
        }
      }
      std::sort(ring.begin(), ring.end());
      const ShardPlacement p(shards, seed);
      std::int64_t mismatches = 0;
      std::int64_t first = -1;
      for (std::int64_t v = 0; v < kIds; ++v) {
        const std::uint64_t h =
            KeyMix(v ^ static_cast<std::int64_t>(seed << 1));
        auto it = std::lower_bound(ring.begin(), ring.end(),
                                   std::make_pair(h, -1));
        if (it == ring.end()) it = ring.begin();
        if (p.ShardOf(OperatorId{v}) != it->second) {
          if (first < 0) first = v;
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0) << shards << " shards, seed " << seed
                               << ", first mismatch at id " << first;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire codec: round-trip properties (satellite: randomized property suite).
// ---------------------------------------------------------------------------

Message RandomMessage(Rng& rng, std::int64_t rows) {
  Message m;
  m.id = MessageId{rng.UniformInt(0, 1'000'000)};
  m.target = OperatorId{rng.UniformInt(0, 5000)};
  m.sender = OperatorId{rng.UniformInt(-1, 5000)};  // -1: external arrival
  m.event_time = rng.UniformInt(0, kSecond * 100);
  m.enqueue_time = rng.UniformInt(0, kSecond * 100);
  m.pc.id = m.id;
  m.pc.pri_local = rng.UniformInt(-1000, kSecond);
  m.pc.pri_global = rng.UniformInt(-1000, kSecond);
  m.pc.frontier_progress = rng.UniformInt(0, kSecond * 100);
  m.pc.frontier_time = rng.UniformInt(0, kSecond * 100);
  m.pc.latency_constraint = rng.UniformInt(0, kSecond * 10);
  m.pc.job = JobId{static_cast<std::int32_t>(rng.UniformInt(0, 100))};
  m.pc.has_token = rng.Chance(0.5);
  m.pc.token_tag = rng.UniformInt(0, kSecond);
  m.pc.token_interval = rng.UniformInt(0, 1000);
  m.batch.progress = rng.UniformInt(0, kSecond * 100);
  m.batch.synthetic_count = rng.Chance(0.3) ? rng.UniformInt(0, 100'000) : 0;
  for (std::int64_t i = 0; i < rows; ++i) {
    m.batch.Append(rng.UniformInt(-1'000'000, 1'000'000),
                   rng.Uniform(-1e12, 1e12), rng.UniformInt(0, kSecond * 100));
  }
  return m;
}

void ExpectBitIdentical(const Message& a, const Message& b) {
  EXPECT_EQ(a.id.value, b.id.value);
  EXPECT_EQ(a.target.value, b.target.value);
  EXPECT_EQ(a.sender.value, b.sender.value);
  EXPECT_EQ(a.event_time, b.event_time);
  EXPECT_EQ(a.enqueue_time, b.enqueue_time);
  EXPECT_EQ(a.pc.id.value, b.pc.id.value);
  EXPECT_EQ(a.pc.pri_local, b.pc.pri_local);
  EXPECT_EQ(a.pc.pri_global, b.pc.pri_global);
  EXPECT_EQ(a.pc.frontier_progress, b.pc.frontier_progress);
  EXPECT_EQ(a.pc.frontier_time, b.pc.frontier_time);
  EXPECT_EQ(a.pc.latency_constraint, b.pc.latency_constraint);
  EXPECT_EQ(a.pc.job.value, b.pc.job.value);
  EXPECT_EQ(a.pc.has_token, b.pc.has_token);
  EXPECT_EQ(a.pc.token_tag, b.pc.token_tag);
  EXPECT_EQ(a.pc.token_interval, b.pc.token_interval);
  EXPECT_EQ(a.batch.progress, b.batch.progress);
  EXPECT_EQ(a.batch.synthetic_count, b.batch.synthetic_count);
  ASSERT_EQ(a.batch.keys, b.batch.keys);
  ASSERT_EQ(a.batch.times, b.batch.times);
  // Doubles must survive bit-exactly, not approximately: compare storage.
  ASSERT_EQ(a.batch.values.size(), b.batch.values.size());
  if (!a.batch.values.empty()) {
    EXPECT_EQ(std::memcmp(a.batch.values.data(), b.batch.values.data(),
                          a.batch.values.size() * sizeof(double)),
              0);
  }
}

TEST(WireCodec, RoundTripRandomized) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t rows = rng.UniformInt(0, 300);
    Message in = RandomMessage(rng, rows);
    WireFrame frame = AcquireFrame();
    EncodeMessage(in, frame);
    EXPECT_GE(frame.bytes.size(), kWireHeaderSize + kWireTrailerSize);
    FrameKind kind{};
    ASSERT_TRUE(PeekFrameKind(frame, kind));
    EXPECT_EQ(kind, FrameKind::kData);
    Message out;
    ASSERT_TRUE(DecodeMessage(frame, out)) << "trial " << trial;
    ExpectBitIdentical(in, out);
    out.batch.Recycle();
    in.batch.Recycle();
    ReleaseFrame(std::move(frame));
  }
}

TEST(WireCodec, ReplyRoundTripRandomized) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const OperatorId sender{rng.UniformInt(0, 5000)};
    const OperatorId from{rng.UniformInt(0, 5000)};
    ReplyContext rc;
    rc.cost_m = rng.UniformInt(0, kSecond);
    rc.cost_path = rng.UniformInt(0, kSecond);
    rc.queueing_delay = rng.UniformInt(0, kSecond);
    rc.valid = rng.Chance(0.8);
    WireFrame frame = AcquireFrame();
    EncodeReply(sender, from, rc, frame);
    FrameKind kind{};
    ASSERT_TRUE(PeekFrameKind(frame, kind));
    EXPECT_EQ(kind, FrameKind::kReply);
    WireReply out;
    ASSERT_TRUE(DecodeReply(frame, out));
    EXPECT_EQ(out.sender.value, sender.value);
    EXPECT_EQ(out.from.value, from.value);
    EXPECT_EQ(out.rc.cost_m, rc.cost_m);
    EXPECT_EQ(out.rc.cost_path, rc.cost_path);
    EXPECT_EQ(out.rc.queueing_delay, rc.queueing_delay);
    EXPECT_EQ(out.rc.valid, rc.valid);
    ReleaseFrame(std::move(frame));
  }
}

TEST(WireCodec, EveryTruncationRejected) {
  Rng rng(9);
  Message in = RandomMessage(rng, 16);
  WireFrame frame = AcquireFrame();
  EncodeMessage(in, frame);
  const std::vector<std::uint8_t> full = frame.bytes;
  for (std::size_t len = 0; len < full.size(); ++len) {
    frame.bytes.assign(full.begin(), full.begin() + static_cast<long>(len));
    Message out;
    out.batch.progress = -777;  // sentinel: decode failure must not touch out
    EXPECT_FALSE(DecodeMessage(frame, out)) << "len " << len;
    EXPECT_EQ(out.batch.progress, -777);
    EXPECT_TRUE(out.batch.keys.empty());
  }
  in.batch.Recycle();
  ReleaseFrame(std::move(frame));
}

TEST(WireCodec, EveryByteCorruptionRejected) {
  Rng rng(10);
  Message in = RandomMessage(rng, 8);
  WireFrame frame = AcquireFrame();
  EncodeMessage(in, frame);
  const std::vector<std::uint8_t> full = frame.bytes;
  int rejected = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    frame.bytes = full;
    frame.bytes[i] ^= 0x5A;
    Message out;
    Message scratch;  // decode may succeed only if the flip cancels -- never
    if (!DecodeMessage(frame, scratch)) {
      ++rejected;
      EXPECT_TRUE(scratch.batch.keys.empty());
    } else {
      scratch.batch.Recycle();
    }
  }
  // CRC32C detects every error burst of up to 32 bits, so every single-byte
  // flip is caught (the checksum also covers the header, so magic/kind/length
  // flips reject too, and a flip in the trailer breaks the comparison).
  EXPECT_EQ(rejected, static_cast<int>(full.size()));
  in.batch.Recycle();
  ReleaseFrame(std::move(frame));
}

TEST(WireCodec, KindMismatchRejected) {
  Rng rng(11);
  Message in = RandomMessage(rng, 4);
  WireFrame data = AcquireFrame();
  EncodeMessage(in, data);
  WireReply reply_out;
  EXPECT_FALSE(DecodeReply(data, reply_out));

  WireFrame reply = AcquireFrame();
  EncodeReply(OperatorId{1}, OperatorId{2}, ReplyContext{}, reply);
  Message msg_out;
  EXPECT_FALSE(DecodeMessage(reply, msg_out));
  EXPECT_TRUE(msg_out.batch.keys.empty());

  in.batch.Recycle();
  ReleaseFrame(std::move(data));
  ReleaseFrame(std::move(reply));
}

TEST(WireCodec, LengthFieldLyingRejected) {
  Rng rng(12);
  Message in = RandomMessage(rng, 4);
  WireFrame frame = AcquireFrame();
  EncodeMessage(in, frame);
  // Inflate the payload_len field (offset 8, u64 LE) past the buffer.
  const std::vector<std::uint8_t> full = frame.bytes;
  for (std::uint64_t lie :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62,
        static_cast<std::uint64_t>(full.size())}) {
    frame.bytes = full;
    std::memcpy(frame.bytes.data() + 8, &lie, sizeof(lie));
    Message out;
    EXPECT_FALSE(DecodeMessage(frame, out));
    EXPECT_TRUE(out.batch.keys.empty());
  }
  in.batch.Recycle();
  ReleaseFrame(std::move(frame));
}

TEST(WireChecksum, Crc32cKnownAnswer) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32c(check, sizeof check), 0xE3069283u);
  EXPECT_EQ(Crc32cTable(check, sizeof check), 0xE3069283u);
  EXPECT_EQ(Crc32c(check, 0), 0u);
}

TEST(WireChecksum, HardwareMatchesTable) {
  // Crc32c takes the SSE4.2 path whenever the CPU has it.
  if (!HasHardwareCrc32c()) GTEST_SKIP() << "CPU lacks SSE4.2";
  Rng rng(13);
  std::vector<std::uint8_t> buf(512 + 8);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  }
  // Every start alignment and every word/tail split of the SSE4.2 loop.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 512; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, len), Crc32cTable(p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(WireCodec, EveryBitFlipRejected) {
  Rng rng(14);
  Message in = RandomMessage(rng, 300);
  WireFrame frame = AcquireFrame();
  EncodeMessage(in, frame);
  ASSERT_EQ(frame.bytes.size(),
            kWireHeaderSize + 137 + 300 * 24 + kWireTrailerSize);
  for (std::size_t i = 0; i < frame.bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto mask = static_cast<std::uint8_t>(1u << bit);
      frame.bytes[i] ^= mask;
      Message out;
      ASSERT_FALSE(DecodeMessage(frame, out)) << "byte " << i << " bit " << bit;
      ASSERT_TRUE(out.batch.keys.empty());
      frame.bytes[i] ^= mask;
    }
  }
  Message out;
  ASSERT_TRUE(DecodeMessage(frame, out));  // the flips were all undone
  out.batch.Recycle();
  in.batch.Recycle();
  ReleaseFrame(std::move(frame));
}

TEST(WireCodec, TrailerUpperHalfMustBeZero) {
  Rng rng(15);
  Message in = RandomMessage(rng, 4);
  WireFrame frame = AcquireFrame();
  EncodeMessage(in, frame);
  const std::size_t body = frame.bytes.size() - kWireTrailerSize;
  std::uint64_t trailer;
  std::memcpy(&trailer, frame.bytes.data() + body, sizeof trailer);
  EXPECT_EQ(trailer, Crc32c(frame.bytes.data(), body));  // zero-extended
  // Keep the correct CRC in the low half, set one bit in the high half.
  trailer |= std::uint64_t{1} << 40;
  std::memcpy(frame.bytes.data() + body, &trailer, sizeof trailer);
  EXPECT_FALSE(ValidateFrame(frame));
  Message out;
  EXPECT_FALSE(DecodeMessage(frame, out));
  EXPECT_TRUE(out.batch.keys.empty());
  in.batch.Recycle();
  ReleaseFrame(std::move(frame));
}

TEST(WireCodec, OldVersionRejected) {
  Rng rng(16);
  Message in = RandomMessage(rng, 4);
  WireFrame frame = AcquireFrame();
  EncodeMessage(in, frame);
  // Relabel as version 2 and re-checksum, so the version byte is the only
  // thing wrong with the frame.
  frame.bytes[5] = 2;
  StampSession(frame, 0, 0, 0);
  EXPECT_FALSE(ValidateFrame(frame));
  Message out;
  EXPECT_FALSE(DecodeMessage(frame, out));
  EXPECT_TRUE(out.batch.keys.empty());
  frame.bytes[5] = kWireVersion;
  StampSession(frame, 0, 0, 0);
  EXPECT_TRUE(ValidateFrame(frame));
  in.batch.Recycle();
  ReleaseFrame(std::move(frame));
}

TEST(WireCodec, SackBitmapRoundTripsUnderTheChecksum) {
  Rng rng(17);
  Message in = RandomMessage(rng, 4);
  WireFrame frame = AcquireFrame();
  EncodeMessage(in, frame);
  const std::size_t size = frame.bytes.size();
  // A bare frame writes zero where the SACK bitmap goes.
  EXPECT_EQ(frame.bytes[kWireSackOffset], 0);
  EXPECT_EQ(frame.bytes[kWireSackOffset + 1], 0);

  StampSession(frame, 41, 37, 0xA5C3);
  EXPECT_EQ(frame.bytes.size(), size);  // the bitmap costs no bytes
  std::uint64_t seq = 0, ack = 0;
  std::uint16_t sack = 0;
  ASSERT_TRUE(PeekSession(frame, seq, ack, sack));
  EXPECT_EQ(seq, 41u);
  EXPECT_EQ(ack, 37u);
  EXPECT_EQ(sack, 0xA5C3);
  EXPECT_TRUE(ValidateFrame(frame));

  // Every single flipped SACK bit fails the CRC.
  Message out;
  for (int bit = 0; bit < 16; ++bit) {
    std::uint8_t& b = frame.bytes[kWireSackOffset + bit / 8];
    b ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(ValidateFrame(frame)) << "bit " << bit;
    EXPECT_FALSE(DecodeMessage(frame, out)) << "bit " << bit;
    b ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  ASSERT_TRUE(DecodeMessage(frame, out));
  ExpectBitIdentical(in, out);
  out.batch.Recycle();
  in.batch.Recycle();
  ReleaseFrame(std::move(frame));
}

TEST(WireCodec, FrameBuffersRecycle) {
  // AcquireFrame after ReleaseFrame reuses capacity (the zero-alloc cycle's
  // backbone; exact alloc counts are gated in tests/alloc_test.cpp).
  WireFrame a = AcquireFrame();
  Message m;
  m.batch.Append(1, 2.0, 3);
  EncodeMessage(m, a);
  const std::size_t cap = a.bytes.capacity();
  ReleaseFrame(std::move(a));
  WireFrame b = AcquireFrame();
  EXPECT_TRUE(b.bytes.empty());
  EXPECT_GE(b.bytes.capacity(), cap);
  ReleaseFrame(std::move(b));
  m.batch.Recycle();
}

// ---------------------------------------------------------------------------
// InprocTransport.
// ---------------------------------------------------------------------------

WireFrame MakeDataFrame(std::int64_t tag) {
  Message m;
  m.id = MessageId{tag};
  m.target = OperatorId{tag};
  m.batch.progress = tag;
  WireFrame f = AcquireFrame();
  EncodeMessage(m, f);
  return f;
}

std::int64_t FrameTag(const WireFrame& f) {
  Message m;
  CAMEO_CHECK(DecodeMessage(f, m));
  const std::int64_t tag = m.batch.progress;
  m.batch.Recycle();
  return tag;
}

TEST(InprocTransportTest, DeliversInSendOrderWithMonotoneTimes) {
  InprocTransport t({.base = Millis(1), .jitter = Millis(5)}, /*seed=*/3);
  t.Start(2);
  constexpr int kFrames = 100;
  std::vector<SimTime> deliver_at;
  for (int i = 0; i < kFrames; ++i) {
    deliver_at.push_back(t.Send(0, 1, /*now=*/i, MakeDataFrame(i)));
  }
  // Jitter would reorder; the monotone clamp must not let it.
  for (int i = 1; i < kFrames; ++i) {
    EXPECT_GE(deliver_at[i], deliver_at[i - 1]);
    EXPECT_GE(deliver_at[i], i + Millis(1));  // >= base delay
  }
  WireFrame out;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(t.Receive(1, kTimeMax, out)) << i;
    EXPECT_EQ(FrameTag(out), i);  // strict send order
    EXPECT_EQ(out.deliver_at, deliver_at[i]);
    ReleaseFrame(std::move(out));
  }
  EXPECT_FALSE(t.Receive(1, kTimeMax, out));
  EXPECT_EQ(t.stats().in_flight(), 0u);
}

TEST(InprocTransportTest, NothingDeliveredBeforeItsTime) {
  InprocTransport t({.base = Millis(10)}, /*seed=*/1);
  t.Start(2);
  const SimTime at = t.Send(0, 1, /*now=*/0, MakeDataFrame(1));
  EXPECT_EQ(at, Millis(10));
  WireFrame out;
  EXPECT_FALSE(t.Receive(1, at - 1, out));
  EXPECT_TRUE(t.Receive(1, at, out));
  ReleaseFrame(std::move(out));
}

TEST(InprocTransportTest, DelaySequenceIsSeedDeterministic) {
  auto sequence = [](std::uint64_t seed) {
    InprocTransport t({.base = Micros(100), .jitter = Millis(2)}, seed);
    t.Start(3);
    std::vector<SimTime> times;
    for (int i = 0; i < 50; ++i) {
      times.push_back(t.Send(i % 2, 2, i * Micros(10), MakeDataFrame(i)));
    }
    WireFrame out;
    while (t.Receive(2, kTimeMax, out)) ReleaseFrame(std::move(out));
    return times;
  };
  EXPECT_EQ(sequence(5), sequence(5));
  EXPECT_NE(sequence(5), sequence(6));
}

TEST(InprocTransportTest, ChannelsAreIndependent) {
  InprocTransport t({}, 1);
  t.Start(3);
  t.Send(0, 2, 0, MakeDataFrame(100));
  t.Send(1, 2, 0, MakeDataFrame(200));
  t.Send(0, 1, 0, MakeDataFrame(300));
  WireFrame out;
  // Destination 1 sees only its frame.
  ASSERT_TRUE(t.Receive(1, kTimeMax, out));
  EXPECT_EQ(FrameTag(out), 300);
  ReleaseFrame(std::move(out));
  EXPECT_FALSE(t.Receive(1, kTimeMax, out));
  // Destination 2 sees both of its frames (source iteration order is fixed).
  std::set<std::int64_t> tags;
  while (t.Receive(2, kTimeMax, out)) {
    tags.insert(FrameTag(out));
    ReleaseFrame(std::move(out));
  }
  EXPECT_EQ(tags, (std::set<std::int64_t>{100, 200}));
}

TEST(InprocTransportTest, ConcurrentSendersKeepPerChannelOrder) {
  InprocTransport t({.jitter = Micros(50)}, 9);
  t.Start(3);
  constexpr int kPerSender = 500;
  // Two producer threads, each owning one source shard: per-channel send
  // order is each thread's program order.
  std::thread s0([&] {
    for (int i = 0; i < kPerSender; ++i) t.Send(0, 2, i, MakeDataFrame(i));
  });
  std::thread s1([&] {
    for (int i = 0; i < kPerSender; ++i) {
      t.Send(1, 2, i, MakeDataFrame(kPerSender + i));
    }
  });
  s0.join();
  s1.join();
  std::int64_t next0 = 0, next1 = kPerSender;
  int received = 0;
  WireFrame out;
  while (t.Receive(2, kTimeMax, out)) {
    const std::int64_t tag = FrameTag(out);
    if (tag < kPerSender) {
      EXPECT_EQ(tag, next0++);
    } else {
      EXPECT_EQ(tag, next1++);
    }
    ++received;
    ReleaseFrame(std::move(out));
  }
  EXPECT_EQ(received, 2 * kPerSender);
  EXPECT_EQ(t.stats().frames_sent, static_cast<std::uint64_t>(received));
}

TEST(InprocTransportTest, ReceiveRacingSendersKeepsPerChannelOrder) {
  InprocTransport t({.jitter = Micros(50)}, 11);
  t.Start(3);
  constexpr int kPerSender = 500;
  // Two producer threads ship into shard 2 while the receiver polls it, so
  // Receive pops each channel's head while Send appends to the same channel.
  auto sender = [&](int from) {
    for (int i = 0; i < kPerSender; ++i) {
      t.Send(from, 2, i, MakeDataFrame(from * kPerSender + i));
    }
  };
  std::thread s0(sender, 0);
  std::thread s1(sender, 1);
  std::int64_t next[2] = {0, kPerSender};
  SimTime last_at[2] = {kTimeMin, kTimeMin};
  int received = 0;
  WireFrame out;
  int from = -1;
  while (received < 2 * kPerSender) {
    if (!t.Receive(2, kTimeMax, out, from)) {
      std::this_thread::yield();
      continue;
    }
    if (from != 0 && from != 1) {
      ADD_FAILURE() << "frame from shard " << from;
      break;  // still join the senders below
    }
    EXPECT_EQ(FrameTag(out), next[from]++);  // in order, each exactly once
    EXPECT_GE(out.deliver_at, last_at[from]);
    last_at[from] = out.deliver_at;
    ++received;
    ReleaseFrame(std::move(out));
  }
  s0.join();
  s1.join();
  EXPECT_FALSE(t.Receive(2, kTimeMax, out));
  EXPECT_EQ(next[0], kPerSender);
  EXPECT_EQ(next[1], 2 * kPerSender);
  const TransportStats stats = t.stats();
  EXPECT_EQ(stats.frames_sent, static_cast<std::uint64_t>(2 * kPerSender));
  EXPECT_EQ(stats.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Session layer over injected faults (PR 10 chaos property suite).
//
// The harness drives SessionLayer -> TapTransport -> FaultInjectingTransport
// -> InprocTransport directly in virtual time: every step sends one frame per
// channel (until the quota), services every shard's timers, and drains every
// shard's deliverable frames. The properties asserted per trial are the
// session contract verbatim: exactly-once (each tag delivered once), per-
// channel send order, monotone release times, full conservation
// (delivered == sent_unique) no matter what the fault schedule did, and a
// receive side that accounts for every frame it pulled off the wire.
// ---------------------------------------------------------------------------

/// A pass-through transport under the session: it counts every frame the
/// session pulls (and the standalone acks among them), and can drop chosen
/// transmissions of chosen data seqs on the (0, 1) channel.
class TapTransport final : public Transport {
 public:
  using Transport::Receive;

  explicit TapTransport(Transport* inner) : inner_(inner) {}

  /// Drops the first `times` transmissions of data seq `seq` sent 0 -> 1.
  void DropSeq(std::uint64_t seq, int times) { drops_.push_back({seq, times}); }

  void Start(int num_shards) override { inner_->Start(num_shards); }

  SimTime Send(int from, int to, SimTime now, WireFrame frame) override {
    std::uint64_t seq = 0, ack = 0;
    std::uint16_t sack = 0;
    PeekSession(frame, seq, ack, sack);
    for (auto& [drop_seq, times] : drops_) {
      if (from == 0 && to == 1 && seq == drop_seq && times > 0) {
        --times;
        ReleaseFrame(std::move(frame));
        return now;
      }
    }
    return inner_->Send(from, to, now, std::move(frame));
  }

  bool Receive(int to, SimTime now, WireFrame& out, int& from) override {
    if (!inner_->Receive(to, now, out, from)) return false;
    ++received;
    FrameKind kind;
    if (ValidateFrame(out) && PeekFrameKind(out, kind) &&
        kind == FrameKind::kAck) {
      ++acks;
    }
    return true;
  }

  TransportStats stats() const override { return inner_->stats(); }
  std::string name() const override { return "tap"; }

  std::uint64_t received = 0;
  std::uint64_t acks = 0;

 private:
  Transport* inner_;
  std::vector<std::pair<std::uint64_t, int>> drops_;
};

std::int64_t ChaosTag(int from, int to, int i) {
  return (static_cast<std::int64_t>(from) * 8 + to) * 1'000'000 + i;
}

struct ChaosRunOutcome {
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over deliveries
  TransportStats session;
  TransportStats faults;
  int delivered_total = 0;
  bool order_ok = true;
  bool monotone_ok = true;
  /// Frames the session pulled off the wire, and the standalone acks among
  /// them.
  std::uint64_t pulled = 0;
  std::uint64_t pulled_acks = 0;
};

ChaosRunOutcome RunSessionChaos(int shards, int per_channel,
                                const FaultPlan& plan, int window = 64) {
  InprocTransport inner({.base = Micros(200), .jitter = Micros(50)},
                        plan.seed);
  FaultInjectingTransport faulty(&inner, plan);
  TapTransport tap(&faulty);
  SessionConfig cfg;
  cfg.enabled = true;
  cfg.seed = plan.seed;
  cfg.window = window;
  SessionLayer session(cfg, &tap);
  tap.Start(shards);
  session.Start(shards);

  const int channels = shards * shards;
  std::vector<int> sent(static_cast<std::size_t>(channels), 0);
  std::vector<int> delivered(static_cast<std::size_t>(channels), 0);
  std::vector<SimTime> last_at(static_cast<std::size_t>(channels), kTimeMin);
  const int total = per_channel * shards * (shards - 1);

  ChaosRunOutcome out;
  auto mix = [&out](std::uint64_t v) {
    out.digest = (out.digest ^ v) * 1099511628211ull;
  };

  SimTime now = 0;
  const SimTime horizon = Seconds(120);
  std::vector<std::pair<int, SimTime>> deliveries;
  while (out.delivered_total < total && now < horizon) {
    now += Micros(500);
    for (int from = 0; from < shards; ++from) {
      for (int to = 0; to < shards; ++to) {
        if (to == from) continue;
        const auto c = static_cast<std::size_t>(from * shards + to);
        if (sent[c] < per_channel) {
          session.Send(from, to, now,
                       MakeDataFrame(ChaosTag(from, to, sent[c])));
          ++sent[c];
        }
      }
    }
    for (int s = 0; s < shards; ++s) {
      deliveries.clear();
      session.Service(s, now, &deliveries);
      WireFrame frame;
      int from = -1;
      while (session.Receive(s, now, frame, from)) {
        const std::int64_t tag = FrameTag(frame);
        const auto c = static_cast<std::size_t>(from * shards + s);
        if (tag != ChaosTag(from, s, delivered[c])) out.order_ok = false;
        if (frame.deliver_at < last_at[c]) out.monotone_ok = false;
        last_at[c] = frame.deliver_at;
        ++delivered[c];
        ++out.delivered_total;
        mix(static_cast<std::uint64_t>(tag));
        mix(static_cast<std::uint64_t>(frame.deliver_at));
        ReleaseFrame(std::move(frame));
      }
    }
  }
  out.session = session.stats();
  out.faults = faulty.stats();
  out.pulled = tap.received;
  out.pulled_acks = tap.acks;
  return out;
}

/// The session contract for one finished chaos run.
void ExpectSessionContract(const ChaosRunOutcome& r, int total) {
  EXPECT_EQ(r.delivered_total, total);
  EXPECT_TRUE(r.order_ok);
  EXPECT_TRUE(r.monotone_ok);
  // Conservation: every distinct app frame offered was released once.
  EXPECT_EQ(r.session.sent_unique, r.session.delivered);
  // The receive side never drops a frame: each one it pulled was an ack, a
  // checksum failure, a duplicate, or released in order (the run ends with
  // the reorder ring empty).
  EXPECT_EQ(r.pulled, r.pulled_acks + r.session.corrupt_drops +
                          r.session.dup_drops + r.session.delivered);
}

TEST(SessionChaos, CleanChannelDeliversWithoutRetransmits) {
  // No faults: the session layer is pure bookkeeping -- everything arrives
  // first try, the RTO never fires, and dedup never triggers.
  FaultPlan plan;
  plan.seed = 7;
  ChaosRunOutcome r = RunSessionChaos(3, 200, plan);
  ExpectSessionContract(r, 3 * 2 * 200);
  EXPECT_EQ(r.session.retransmits, 0u);
  EXPECT_EQ(r.session.out_of_order, 0u);
  EXPECT_EQ(r.session.dup_drops, 0u);
  EXPECT_EQ(r.session.corrupt_drops, 0u);
}

TEST(SessionChaos, ExactlyOnceInOrderUnderRandomFaultSchedules) {
  // The randomized property suite: arbitrary drop/dup/corrupt/delay/reorder
  // mixes (plus an occasional partition and stall window) must never break
  // exactly-once, per-channel order, or watermark monotonicity.
  Rng meta(424242);
  for (int trial = 0; trial < 6; ++trial) {
    FaultPlan plan;
    plan.seed = 1000 + static_cast<std::uint64_t>(trial);
    plan.drop_rate = meta.Uniform01() * 0.25;
    plan.dup_rate = meta.Uniform01() * 0.20;
    plan.corrupt_rate = meta.Uniform01() * 0.15;
    plan.delay_rate = meta.Uniform01() * 0.20;
    plan.reorder_rate = meta.Uniform01() * 0.20;
    if (meta.Chance(0.5)) {
      plan.partitions.push_back({0, 1, Millis(50), Millis(250)});
    }
    if (meta.Chance(0.5)) {
      plan.stalls.push_back({2, Millis(100), Millis(200)});
    }
    SCOPED_TRACE("trial " + std::to_string(trial) +
                 " drop=" + std::to_string(plan.drop_rate) +
                 " dup=" + std::to_string(plan.dup_rate) +
                 " corrupt=" + std::to_string(plan.corrupt_rate));
    ChaosRunOutcome r = RunSessionChaos(3, 120, plan);
    ExpectSessionContract(r, 3 * 2 * 120);
    // The schedule actually engaged the machinery it claims to test.
    if (plan.drop_rate > 0.02 || !plan.partitions.empty()) {
      EXPECT_GT(r.session.retransmits, 0u);
    }
    if (plan.dup_rate > 0.02) {
      EXPECT_GT(r.session.dup_drops, 0u);
    }
    if (plan.corrupt_rate > 0.02) {
      EXPECT_GT(r.session.corrupt_drops, 0u);
    }
  }
  // The window bounds the reorder ring: a ring of one slot, a few, and the
  // default all hold up under reordering plus a partition.
  for (int window : {1, 4, 64}) {
    FaultPlan plan;
    plan.seed = 2000 + static_cast<std::uint64_t>(window);
    plan.drop_rate = 0.05;
    plan.dup_rate = 0.05;
    plan.reorder_rate = 0.15;
    plan.partitions.push_back({0, 1, Millis(20), Millis(120)});
    SCOPED_TRACE("window " + std::to_string(window));
    ChaosRunOutcome r = RunSessionChaos(3, 120, plan, window);
    ExpectSessionContract(r, 3 * 2 * 120);
    EXPECT_GT(r.faults.faults_reordered, 0u);
    EXPECT_GT(r.faults.partition_dropped, 0u);
    EXPECT_GT(r.session.retransmits, 0u);
    if (window > 1) {
      EXPECT_GT(r.session.out_of_order, 0u);
    }
  }
}

TEST(SessionChaos, FixedSeedRepliesBitForBit) {
  // A chaos run is a pure function of its seed: same plan, same seed ->
  // the same deliveries at the same virtual times with the same fault and
  // retransmit counters. A different seed draws a different schedule.
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_rate = 0.10;
  plan.dup_rate = 0.08;
  plan.corrupt_rate = 0.05;
  plan.delay_rate = 0.10;
  plan.reorder_rate = 0.08;
  ChaosRunOutcome a = RunSessionChaos(3, 150, plan);
  ChaosRunOutcome b = RunSessionChaos(3, 150, plan);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.session.retransmits, b.session.retransmits);
  EXPECT_EQ(a.session.fast_retransmits, b.session.fast_retransmits);
  EXPECT_EQ(a.session.dup_drops, b.session.dup_drops);
  EXPECT_EQ(a.session.corrupt_drops, b.session.corrupt_drops);
  EXPECT_EQ(a.session.acks_sent, b.session.acks_sent);
  EXPECT_EQ(a.faults.faults_dropped, b.faults.faults_dropped);
  EXPECT_EQ(a.faults.faults_duplicated, b.faults.faults_duplicated);

  plan.seed = 78;
  ChaosRunOutcome c = RunSessionChaos(3, 150, plan);
  EXPECT_NE(a.digest, c.digest);
}

TEST(SessionChaos, PartitionHealsAndBacklogDrains) {
  // A hard 400 ms partition between the only two shards: everything sent
  // inside the window is dropped on the floor, and the retransmit chain must
  // replay the entire backlog after the heal -- in order, exactly once.
  FaultPlan plan;
  plan.seed = 5;
  plan.partitions.push_back({0, 1, 0, Millis(400)});
  ChaosRunOutcome r = RunSessionChaos(2, 100, plan);
  ExpectSessionContract(r, 2 * 1 * 100);
  EXPECT_GT(r.faults.partition_dropped, 0u);
  EXPECT_GT(r.session.retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Loss repair: selective acks, fast retransmit, and the RTT-fitted timer.
//
// One-way traffic 0 -> 1 over a 1 ms link with no jitter, so every repair
// time is exact. The tap drops chosen transmissions of chosen seqs; frame
// tag i travels as seq i + 1.
// ---------------------------------------------------------------------------

constexpr Duration kLinkDelay = Millis(1);

struct OneWayRun {
  std::vector<SimTime> sent_at;       // by tag
  std::vector<SimTime> delivered_at;  // by tag
  bool order_ok = true;
  TransportStats stats;
  Duration rto = 0;  // CurrentRto(0, 1) once everything was delivered
};

OneWayRun RunOneWay(int frames, Duration gap,
                    const std::vector<std::pair<std::uint64_t, int>>& drops,
                    const SessionConfig& cfg) {
  InprocTransport inner({.base = kLinkDelay}, /*seed=*/1);
  TapTransport tap(&inner);
  for (const auto& [seq, times] : drops) tap.DropSeq(seq, times);
  SessionLayer session(cfg, &tap);
  tap.Start(2);
  session.Start(2);

  OneWayRun run;
  int sent = 0;
  int delivered = 0;
  SimTime now = 0;
  while (delivered < frames && now < Seconds(10)) {
    now += Micros(50);
    while (sent < frames && (sent + 1) * gap <= now) {
      session.Send(0, 1, now, MakeDataFrame(sent));
      run.sent_at.push_back(now);
      ++sent;
    }
    for (int s = 0; s < 2; ++s) {
      session.Service(s, now, nullptr);
      WireFrame frame;
      int from = -1;
      while (session.Receive(s, now, frame, from)) {
        if (FrameTag(frame) != delivered) run.order_ok = false;
        run.delivered_at.push_back(now);
        ++delivered;
        ReleaseFrame(std::move(frame));
      }
    }
  }
  run.stats = session.stats();
  run.rto = session.CurrentRto(0, 1);
  return run;
}

TEST(SessionLossRepair, SingleDropRepairedByFastRetransmitBeforeTheRto) {
  // seq 2 is lost; seqs 3..8 follow 100 us apart. The receiver acks the
  // first three out-of-order arrivals at once, their SACK bits show the
  // sender a hole with three sacked frames above it, and the re-send lands
  // about one round trip after seq 5 arrived -- long before kRtoInitial.
  SessionConfig cfg;
  cfg.enabled = true;
  const OneWayRun run = RunOneWay(8, Micros(100), {{2, 1}}, cfg);
  ASSERT_EQ(run.delivered_at.size(), 8u);
  EXPECT_TRUE(run.order_ok);
  EXPECT_EQ(run.stats.fast_retransmits, 1u);
  EXPECT_EQ(run.stats.rto_retransmits, 0u);
  EXPECT_EQ(run.stats.retransmits, 1u);
  EXPECT_EQ(run.stats.dup_drops, 0u);
  const Duration repair = run.delivered_at[1] - run.sent_at[1];
  EXPECT_LT(repair, SessionLayer::kRtoInitial);
  // seq 5 lands at 1.5 ms, its ack reaches the sender at 2.5 ms, and the
  // re-send lands at 3.5 ms: one link delay after the ack.
  EXPECT_LE(run.delivered_at[1], run.sent_at[4] + 3 * kLinkDelay);
}

TEST(SessionLossRepair, RepairedRunFeedsNoRttSample) {
  // Regression for an RTO runaway. Each of three holes loses its fast
  // retransmit too, so only the retransmit timer repairs it, and dozens of
  // frames wait in the reorder ring behind it. When the repair lands, one
  // cumulative ack releases them all. Had that ack counted as their round
  // trip, each repair would have fed the timer its own wait, and the RTO
  // would have climbed far above the link's.
  SessionConfig cfg;
  cfg.enabled = true;
  const OneWayRun run =
      RunOneWay(400, Micros(100), {{50, 2}, {150, 2}, {250, 2}}, cfg);
  ASSERT_EQ(run.delivered_at.size(), 400u);
  EXPECT_TRUE(run.order_ok);
  EXPECT_EQ(run.stats.fast_retransmits, 3u);
  EXPECT_GE(run.stats.rto_retransmits, 3u);
  EXPECT_GT(run.stats.out_of_order, 3u * SessionLayer::kSackBits);
  // The fitted timer sits near the 2 ms round trip plus the receiver's
  // delayed-ack bound, well under kRtoInitial.
  EXPECT_LT(run.rto, 2 * kLinkDelay + SessionLayer::kAckDelay + Millis(2));
  EXPECT_LT(run.rto, SessionLayer::kRtoInitial);
}

// ---------------------------------------------------------------------------
// ShardRuntime receive path: the session validates a frame's checksum and
// the decode trusts it; without the session the decode checks it.
// ---------------------------------------------------------------------------

TEST(ShardRuntimeReceive, CorruptFrameRejectedAndCountedOnBothPaths) {
  for (const bool session : {false, true}) {
    SCOPED_TRACE(session ? "session on" : "session off");
    auto link = std::make_unique<InprocTransport>(DelayModel{}, /*seed=*/1);
    InprocTransport* wire = link.get();
    EngineOptions opts;
    opts.shards = 2;
    opts.sim.shard_session.enabled = session;
    ShardRuntime rt(opts, std::move(link));
    ASSERT_EQ(rt.session_enabled(), session);

    // A frame corrupted on the wire after its checksum was written.
    WireFrame bad = MakeDataFrame(7);
    StampSession(bad, session ? 1 : 0, 0, 0);
    bad.bytes[kWireHeaderSize + 3] ^= 0xFF;
    wire->Send(0, 1, 0, std::move(bad));
    Message msg;
    WireReply reply;
    EXPECT_EQ(rt.ReceiveOne(1, 0, msg, reply), ReceiveKind::kNone);
    // The session drops it before decode; without one the decode rejects it.
    EXPECT_EQ(rt.transport_stats().corrupt_drops, session ? 1u : 0u);
    EXPECT_EQ(rt.wire_stats().rejected, session ? 0u : 1u);
    EXPECT_EQ(rt.wire_stats().frames_decoded, 0u);

    // An intact frame on the same path decodes bit-identically.
    Rng rng(23);
    Message m = RandomMessage(rng, 5);
    rt.SendMessage(0, 1, 0, m);
    ASSERT_EQ(rt.ReceiveOne(1, 0, msg, reply), ReceiveKind::kMessage);
    ExpectBitIdentical(m, msg);
    EXPECT_EQ(rt.wire_stats().frames_decoded, 1u);
    msg.batch.Recycle();
    m.batch.Recycle();
  }
}

// ---------------------------------------------------------------------------
// ShardRuntime construction from EngineOptions: the default link, an
// injected transport, the session's auto-enable and the seed re-keying.
// ---------------------------------------------------------------------------

/// Ships `n` random messages 0 -> 1 at time 0 and returns each one's
/// modeled delivery time (a frame the fault layer drops reads 0).
std::vector<SimTime> SendTimes(ShardRuntime& rt, int n) {
  Rng rng(31);
  std::vector<SimTime> at;
  for (int i = 0; i < n; ++i) {
    Message m = RandomMessage(rng, 2);
    at.push_back(rt.SendMessage(0, 1, 0, m));
    m.batch.Recycle();
  }
  return at;
}

TEST(ShardRuntimeConstruction, DefaultLinkIsTheDocumentedConstant) {
  EngineOptions opts;
  opts.shards = 2;
  ShardRuntime rt(opts);
  EXPECT_FALSE(rt.session_enabled());
  for (SimTime at : SendTimes(rt, 16)) {
    EXPECT_GE(at, kDefaultLink.base);
    EXPECT_LT(at, kDefaultLink.base + kDefaultLink.jitter);
  }
}

TEST(ShardRuntimeConstruction, InjectedTransportIsUsedAsGiven) {
  auto link = std::make_unique<InprocTransport>(
      DelayModel{.base = Millis(7)}, /*seed=*/1);
  InprocTransport* wire = link.get();
  EngineOptions opts;
  opts.shards = 2;
  ShardRuntime rt(opts, std::move(link));
  EXPECT_EQ(&rt.transport(), wire);
  EXPECT_EQ(SendTimes(rt, 1), std::vector<SimTime>{Millis(7)});
}

TEST(ShardRuntimeConstruction, ArmedFaultsTurnTheSessionOn) {
  EngineOptions opts;
  opts.shards = 2;
  EXPECT_FALSE(ShardRuntime(opts).session_enabled());
  opts.sim.shard_faults.dup_rate = 0.01;
  ShardRuntime rt(opts);
  EXPECT_TRUE(rt.session_enabled());
  EXPECT_EQ(rt.transport().name(), "fault+inproc");
}

TEST(ShardRuntimeConstruction, DefaultFaultSeedIsRekeyedToTheRunSeed) {
  // Which frames the fault layer drops is a function of the plan's seed.
  // The default plan seed (1) draws like an explicit plan seed equal to the
  // run seed; any other explicit seed is kept.
  auto drops = [](std::uint64_t plan_seed) {
    EngineOptions opts;
    opts.shards = 2;
    opts.seed = 77;
    opts.sim.shard_faults.drop_rate = 0.5;
    opts.sim.shard_faults.seed = plan_seed;
    ShardRuntime rt(opts);
    return SendTimes(rt, 32);
  };
  EXPECT_EQ(drops(1), drops(77));
  EXPECT_NE(drops(1), drops(2));
}

TEST(ShardRuntimeConstruction, DefaultSessionSeedIsRekeyedToTheRunSeed) {
  // The retransmit timer's jitter comes from the session seed, so the first
  // timer deadline after a send tells the seeds apart.
  auto deadline = [](std::uint64_t session_seed) {
    EngineOptions opts;
    opts.shards = 2;
    opts.seed = 77;
    opts.sim.shard_session.enabled = true;
    opts.sim.shard_session.seed = session_seed;
    ShardRuntime rt(opts);
    SendTimes(rt, 1);
    return rt.ServiceSession(0, 0, nullptr);  // fires nothing before the RTO
  };
  const SimTime rekeyed = deadline(1);
  EXPECT_GE(rekeyed, SessionLayer::kRtoInitial);
  EXPECT_LT(rekeyed, SessionLayer::kRtoInitial + SessionLayer::kRtoJitter);
  EXPECT_EQ(rekeyed, deadline(77));
  EXPECT_NE(rekeyed, deadline(2));
}

// ---------------------------------------------------------------------------
// Routing stability under sharding (satellite: regression pins).
// ---------------------------------------------------------------------------

OperatorFactory SourceFactory() {
  return [](int) { return std::make_unique<SourceOp>("src", CostModel{}); };
}

OperatorFactory SinkFactory() {
  return [](int) { return std::make_unique<SinkOp>("sink", CostModel{}); };
}

TEST(RoutingStability, KeyHashMappingIsKeyMixModReplicas) {
  // Pins the exact key -> replica function. If this mapping ever changes,
  // keyed state migrates between replicas and every sharded replay breaks:
  // bump wire/version notes and regenerate goldens deliberately.
  DataflowGraph g;
  JobId job = g.AddJob({.name = "pin", .latency_constraint = Millis(100)});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 4, SinkFactory());
  g.Connect(a, b, Partition::kKeyHash);
  EventBatch batch;
  for (std::int64_t k = 0; k < 64; ++k) batch.Append(k, 1.0, k);
  batch.progress = 64;
  auto out = g.Route(g.stage(a).operators[0], 0, std::move(batch));
  ASSERT_EQ(out.size(), 4u);  // every replica gets rows or a progress batch
  for (const auto& d : out) {
    // Position of the target within the stage's global replica list.
    const auto& ops = g.stage(b).operators;
    const auto it = std::find(ops.begin(), ops.end(), d.target);
    ASSERT_NE(it, ops.end());
    const auto replica = static_cast<std::uint64_t>(it - ops.begin());
    for (std::int64_t k : d.batch.keys) {
      EXPECT_EQ(KeyMix(k) % 4, replica) << "key " << k;
    }
  }
}

TEST(RoutingStability, DecisionsIdenticalUnderAnyPlacement) {
  // Route() picks replicas from the stage-global operator list; shard
  // placement must not be able to change the picks. Two structurally
  // identical graphs + any ShardPlacement agree on every delivery.
  auto build = [](DataflowGraph& g) {
    JobId job = g.AddJob({.name = "p", .latency_constraint = Millis(100)});
    StageId a = g.AddStage(job, "a", 2, SourceFactory());
    StageId b = g.AddStage(job, "b", 3, SinkFactory());
    g.Connect(a, b, Partition::kKeyHash);
    return std::pair{a, b};
  };
  DataflowGraph g1, g2;
  auto [a1, b1] = build(g1);
  auto [a2, b2] = build(g2);
  (void)b1;
  (void)b2;
  Rng rng(15);
  for (int trial = 0; trial < 20; ++trial) {
    EventBatch batch;
    for (int i = 0; i < 50; ++i) {
      batch.Append(rng.UniformInt(0, 1000), 1.0, i);
    }
    batch.progress = 50;
    EventBatch copy = batch;
    auto d1 = g1.Route(g1.stage(a1).operators[0], 0, std::move(batch));
    auto d2 = g2.Route(g2.stage(a2).operators[0], 0, std::move(copy));
    ASSERT_EQ(d1.size(), d2.size());
    for (std::size_t i = 0; i < d1.size(); ++i) {
      EXPECT_EQ(d1[i].target.value, d2[i].target.value);
      EXPECT_EQ(d1[i].batch.keys, d2[i].batch.keys);
    }
  }
  // And placement is downstream of routing: whatever shard owns a target,
  // the target id itself is placement-independent by construction.
  ShardPlacement p1(1), p4(4), p8(8);
  for (std::int64_t v = 0; v < 5; ++v) {
    EXPECT_EQ(p1.ShardOf(OperatorId{v}), 0);
    EXPECT_LT(p4.ShardOf(OperatorId{v}), 4);
    EXPECT_LT(p8.ShardOf(OperatorId{v}), 8);
  }
}

TEST(RoutingStability, RoundRobinCursorsPerEdgeIndependent) {
  DataflowGraph g;
  JobId job = g.AddJob({.name = "rr", .latency_constraint = Millis(100)});
  StageId a = g.AddStage(job, "a", 1, SourceFactory());
  StageId b = g.AddStage(job, "b", 3, SinkFactory());
  StageId c = g.AddStage(job, "c", 3, SinkFactory());
  g.Connect(a, b, Partition::kRoundRobin);
  g.Connect(a, c, Partition::kRoundRobin);
  const OperatorId sender = g.stage(a).operators[0];
  // Port 0 advances its cursor twice; port 1's cursor must still start at 0.
  auto d0a = g.Route(sender, 0, EventBatch::Synthetic(1, 1));
  auto d0b = g.Route(sender, 0, EventBatch::Synthetic(1, 2));
  auto d1 = g.Route(sender, 1, EventBatch::Synthetic(1, 3));
  EXPECT_EQ(d0a[0].target.value, g.stage(b).operators[0].value);
  EXPECT_EQ(d0b[0].target.value, g.stage(b).operators[1].value);
  EXPECT_EQ(d1[0].target.value, g.stage(c).operators[0].value);
}

// ---------------------------------------------------------------------------
// Sharded cluster end-to-end contracts.
// ---------------------------------------------------------------------------

KeyedScenarioOptions SmallKeyedRun(int shards) {
  KeyedScenarioOptions opt;
  opt.num_keys = 2000;
  opt.sources = 2;
  opt.counters = 4;
  opt.msgs_per_sec = 10;
  opt.tuples_per_msg = 200;
  opt.engine.workers = 2;
  opt.duration = Seconds(4);
  opt.engine.shards = shards;
  opt.engine.seed = 21;
  return opt;
}

TEST(ShardedCluster, ConservationAndTransportDrainAtQuiescence) {
  KeyedScenarioResult r = RunKeyedScenario(SmallKeyedRun(3));
  // Every ingested message is dispatched or purged, across all shards.
  EXPECT_EQ(r.run.sched.enqueued,
            r.run.sched.dispatched + r.run.sched.purged);
  // The transport is empty when virtual time quiesces, and every frame that
  // crossed a boundary was decoded exactly once.
  EXPECT_GT(r.frames_sent, 0);  // 3 shards: edges do cross boundaries
  EXPECT_EQ(r.frames_sent, r.frames_received);
  ASSERT_EQ(r.shard_sched.size(), 3u);
  std::uint64_t dispatched = 0;
  for (const SchedulerStats& s : r.shard_sched) dispatched += s.dispatched;
  EXPECT_EQ(dispatched, r.run.sched.dispatched);
}

TEST(ShardedCluster, WatermarksCrossShardsAndWindowsClose) {
  // Windowed results only materialize if progress flows across the wire:
  // a stalled cross-shard watermark would leave every window open and the
  // sink output at zero.
  KeyedScenarioResult r = RunKeyedScenario(SmallKeyedRun(2));
  ASSERT_FALSE(r.run.jobs.empty());
  EXPECT_GT(r.run.jobs[0].outputs, 0u);
  EXPECT_GT(r.rows_seen, 0);
  EXPECT_GT(r.count_emitted, 0);
}

TEST(ShardedCluster, SingleShardBitIdenticalToUnsharded) {
  // shards=1 must reproduce the unsharded engine bit for bit (the replay
  // goldens gate this globally; this is the targeted fast check).
  KeyedScenarioResult one = RunKeyedScenario(SmallKeyedRun(1));
  KeyedScenarioOptions unsharded = SmallKeyedRun(1);
  unsharded.engine.shards = 1;
  KeyedScenarioResult two = RunKeyedScenario(unsharded);
  ASSERT_FALSE(one.run.jobs.empty());
  EXPECT_EQ(one.run.jobs[0].outputs, two.run.jobs[0].outputs);
  EXPECT_EQ(one.run.jobs[0].median_ms, two.run.jobs[0].median_ms);
  EXPECT_EQ(one.run.jobs[0].p99_ms, two.run.jobs[0].p99_ms);
  EXPECT_EQ(one.rows_seen, two.rows_seen);
  EXPECT_EQ(one.count_emitted, two.count_emitted);
  EXPECT_EQ(one.frames_sent, 0);  // no boundary to cross
}

TEST(ShardedCluster, ShardCountPreservesTotals) {
  // Routing is placement-independent, so the rows each counter replica sees
  // are identical at any shard count; only timing differs (link delay).
  KeyedScenarioResult one = RunKeyedScenario(SmallKeyedRun(1));
  KeyedScenarioResult four = RunKeyedScenario(SmallKeyedRun(4));
  EXPECT_EQ(one.rows_seen, four.rows_seen);
}

// ---------------------------------------------------------------------------
// Chaos end-to-end: fault injection + session layer under the full cluster.
// ---------------------------------------------------------------------------

KeyedScenarioOptions ChaosKeyedRun() {
  // Same workload as SmallKeyedRun(2) but with ingestion stopping 2 s before
  // the horizon, so retransmit chains converge before virtual time runs out
  // (the delivery-conservation gates depend on that grace window).
  KeyedScenarioOptions opt = SmallKeyedRun(2);
  opt.duration = Seconds(6);
  opt.ingest_end = Seconds(4);
  return opt;
}

TEST(ChaosCluster, DeliveryConservedUnderDropDupCorrupt) {
  KeyedScenarioResult clean = RunKeyedScenario(ChaosKeyedRun());

  KeyedScenarioOptions opt = ChaosKeyedRun();
  opt.engine.sim.shard_faults.drop_rate = 0.05;
  opt.engine.sim.shard_faults.dup_rate = 0.05;
  opt.engine.sim.shard_faults.corrupt_rate = 0.02;
  KeyedScenarioResult chaos = RunKeyedScenario(opt);

  // The schedule engaged: frames really were lost/duplicated in flight.
  EXPECT_GT(chaos.transport.faults_dropped, 0u);
  EXPECT_GT(chaos.transport.faults_duplicated, 0u);
  EXPECT_GT(chaos.transport.retransmits, 0u);
  // ...and the session layer hid every bit of it from the dataflow: each
  // distinct app frame was released exactly once, and the counters saw the
  // same rows as the fault-free run.
  EXPECT_EQ(chaos.transport.sent_unique, chaos.transport.delivered);
  EXPECT_EQ(chaos.rows_seen, clean.rows_seen);
  EXPECT_EQ(chaos.run.sched.enqueued,
            chaos.run.sched.dispatched + chaos.run.sched.purged);
}

TEST(ChaosCluster, ChaosRunsAreBitDeterministic) {
  KeyedScenarioOptions opt = ChaosKeyedRun();
  opt.engine.sim.shard_faults.drop_rate = 0.08;
  opt.engine.sim.shard_faults.dup_rate = 0.05;
  opt.engine.sim.shard_faults.delay_rate = 0.10;
  opt.engine.sim.shard_faults.reorder_rate = 0.05;
  KeyedScenarioResult a = RunKeyedScenario(opt);
  KeyedScenarioResult b = RunKeyedScenario(opt);
  ASSERT_FALSE(a.run.jobs.empty());
  EXPECT_EQ(a.run.jobs[0].outputs, b.run.jobs[0].outputs);
  EXPECT_EQ(a.run.jobs[0].median_ms, b.run.jobs[0].median_ms);
  EXPECT_EQ(a.run.jobs[0].p99_ms, b.run.jobs[0].p99_ms);
  EXPECT_EQ(a.rows_seen, b.rows_seen);
  EXPECT_EQ(a.count_emitted, b.count_emitted);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.transport.retransmits, b.transport.retransmits);
  EXPECT_EQ(a.transport.dup_drops, b.transport.dup_drops);
  EXPECT_EQ(a.transport.faults_dropped, b.transport.faults_dropped);
}

TEST(ChaosCluster, SessionWithoutFaultsStaysTransparent) {
  // The session layer alone (no injected faults) must not change what the
  // dataflow computes -- only wire timing can shift (acks share channels).
  KeyedScenarioResult plain = RunKeyedScenario(ChaosKeyedRun());
  KeyedScenarioOptions opt = ChaosKeyedRun();
  opt.engine.sim.shard_session.enabled = true;
  KeyedScenarioResult sess = RunKeyedScenario(opt);
  EXPECT_EQ(sess.rows_seen, plain.rows_seen);
  EXPECT_EQ(sess.transport.sent_unique, sess.transport.delivered);
  EXPECT_EQ(sess.transport.retransmits, 0u);
  EXPECT_EQ(sess.transport.dup_drops, 0u);
}

TEST(ShardedSimEngineTest, FacadeExposesShardReadSide) {
  EngineOptions eo;
  eo.workers = 2;
  eo.shards = 3;
  eo.seed = 4;
  SimEngine engine(eo);

  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  IngestSpec ingest;
  ingest.msgs_per_sec = 5;
  ingest.tuples_per_msg = 100;
  ingest.end = Seconds(2);
  QueryHandle q = engine.Submit(AggregationQueryDef(spec).Ingest(ingest));
  engine.RunFor(Seconds(1));
  ShardRuntime& runtime = engine.cluster().shard_runtime();
  EXPECT_EQ(runtime.num_shards(), 3);

  // Mid-run reads: the snapshot accessors are usable before Summarize.
  const std::vector<PolicyCounter> counters =
      engine.cluster().PolicyCountersSnapshot();
  (void)counters;  // roster may be empty for LLF; the call must be safe
  std::uint64_t dispatched = 0;
  for (int s = 0; s < runtime.num_shards(); ++s) {
    dispatched += runtime.scheduler(s).stats().dispatched;
  }
  EXPECT_EQ(dispatched, engine.sched_stats().dispatched);
  for (OperatorId op : engine.graph().OperatorsOf(q.job())) {
    const int shard = runtime.ShardOf(op);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 3);
  }

  engine.RunFor(Seconds(1));
  RunResult result = engine.Summarize(Seconds(2));
  EXPECT_GT(result.sched.dispatched, 0u);
  EXPECT_EQ(runtime.wire_stats().frames_encoded,
            runtime.wire_stats().frames_decoded);
}

}  // namespace
}  // namespace cameo::shard
