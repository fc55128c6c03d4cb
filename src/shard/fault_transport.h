// FaultInjectingTransport: a deterministic chaos decorator over any
// Transport.
//
// Every failure mode the session layer (session.h) must survive is enacted
// here, on the send path, from a per-channel seeded Rng -- so a fault
// schedule is a pure function of (seed, channel, frame ordinal) and a chaos
// run replays bit-for-bit. The taxonomy:
//
//  - **Drop**: the frame is silently discarded (released back to the pool);
//    the caller still gets a modeled delivery time, exactly like a lost
//    packet that the sender cannot observe.
//  - **Duplicate**: the frame is shipped twice back-to-back; the copy lands
//    later on the FIFO inner channel and must be deduped by seq.
//  - **Corrupt**: one byte is flipped in flight; the codec checksum catches
//    it at the receiver, which sees a hole where the seq should have been.
//  - **Delay spike**: the frame is sent as if `kDelaySpike` later. The inner
//    transport's monotone clamp turns this into head-of-line blocking for
//    the whole channel -- the same stall a retransmitting TCP link shows.
//  - **Reorder**: the frame is held back and shipped after the channel's
//    next send (or flushed at the next receive poll), arriving genuinely
//    out of order.
//  - **Partition**: within a [start, end) window, every frame between the
//    named shard pair (both directions) is dropped.
//  - **Stall**: within a window, Receive() for the named shard returns
//    nothing -- a paused process; frames queue up in the inner transport.
//
// Faults compose: a frame can be delayed *and* corrupted; a duplicate can
// itself be dropped on a later fault draw only via the schedule of the copy
// (copies are shipped directly, so each Send draws at most one fault
// cascade). Drops never leak pooled buffers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "shard/transport.h"

namespace cameo::shard {

/// A transient full partition between shards `a` and `b` (both directions);
/// -1 matches any shard.
struct PartitionWindow {
  int a = -1;
  int b = -1;
  SimTime start = 0;
  SimTime end = 0;
};

/// A window during which shard `shard` stops polling its inboxes entirely.
struct StallWindow {
  int shard = -1;
  SimTime start = 0;
  SimTime end = 0;
};

/// Extra latency a delay-spiked frame (and, via the inner transport's
/// monotone clamp, everything behind it) suffers.
inline constexpr Duration kDelaySpike = Millis(20);

/// The fault schedule. All rates are per-frame probabilities in [0, 1],
/// drawn independently per (from, to) channel from a seeded Rng.
struct FaultPlan {
  double drop_rate = 0;
  double dup_rate = 0;
  double corrupt_rate = 0;
  double delay_rate = 0;
  double reorder_rate = 0;
  std::vector<PartitionWindow> partitions;
  std::vector<StallWindow> stalls;
  std::uint64_t seed = 1;

  bool any() const {
    return drop_rate > 0 || dup_rate > 0 || corrupt_rate > 0 ||
           delay_rate > 0 || reorder_rate > 0 || !partitions.empty() ||
           !stalls.empty();
  }
};

class FaultInjectingTransport final : public Transport {
 public:
  /// Wraps `inner` (not owned; must outlive this decorator).
  FaultInjectingTransport(Transport* inner, FaultPlan plan);
  ~FaultInjectingTransport() override;

  void Start(int num_shards) override;
  SimTime Send(int from, int to, SimTime now, WireFrame frame) override;
  using Transport::Receive;
  bool Receive(int to, SimTime now, WireFrame& out, int& from) override;
  TransportStats stats() const override;
  std::string name() const override { return "fault+" + inner_->name(); }

 private:
  struct Channel;

  Channel& ChannelAt(int from, int to);
  bool Partitioned(int from, int to, SimTime now) const;
  bool Stalled(int shard, SimTime now) const;
  /// Ships every held (reordered) frame on the (from, to) channel into the
  /// inner transport. Caller holds the channel mutex.
  void FlushHeldLocked(Channel& ch, int from, int to, SimTime now);

  Transport* inner_;
  FaultPlan plan_;
  int num_shards_ = 0;
  std::vector<std::unique_ptr<Channel>> channels_;

  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> partition_dropped_{0};
};

}  // namespace cameo::shard
