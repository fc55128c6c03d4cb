// In-process Transport with a modeled network: the simulator's stand-in for
// the machine-to-machine links of the paper's deployment.
//
// Each directed (from, to) shard pair owns an independent channel: one
// locked FIFO. A single mutex per channel, shared by the senders and the
// receiver, guards the delay model, a queue of frames in send order and the
// channel's counters. Senders on one edge serialize on the delay draw
// anyway, so the lock costs no contention a lock-free push would avoid, and
// send order is queue order by construction.
//
//  - **Modeled delay.** Send stamps deliver_at = max(prev_deliver_at,
//    now + base + jitter * U[0,1)) where U comes from a per-channel Rng
//    seeded from (seed, from, to). The max-clamp keeps per-channel delivery
//    times monotone (the Transport ordering contract) even when jitter would
//    reorder; the per-channel seed makes every channel's delay sequence a
//    pure function of the run seed, so fixed-seed sim replays of multi-shard
//    topologies are bit-identical.
//  - **Delivery.** Receive scans the sources in a fixed order and pops at
//    most one frame: the head of the first channel whose head is due.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "shard/transport.h"

namespace cameo::shard {

struct DelayModel {
  /// Fixed one-way link latency added to every frame.
  Duration base = 0;
  /// Uniform jitter width: actual delay = base + jitter * U[0,1).
  Duration jitter = 0;
};

class InprocTransport final : public Transport {
 public:
  // Out of line: Channel is incomplete here, and an inline constructor would
  // instantiate the channel vector's deleter.
  explicit InprocTransport(DelayModel delay = {}, std::uint64_t seed = 1);
  ~InprocTransport() override;

  void Start(int num_shards) override;
  SimTime Send(int from, int to, SimTime now, WireFrame frame) override;
  using Transport::Receive;
  bool Receive(int to, SimTime now, WireFrame& out, int& from) override;
  TransportStats stats() const override;
  std::string name() const override { return "inproc"; }

 private:
  struct Channel;

  Channel& ChannelAt(int from, int to);

  DelayModel delay_;
  std::uint64_t seed_;
  int num_shards_ = 0;
  /// Dense (from, to) matrix, row-major; channels are heap-anchored so the
  /// vector never moves a live mutex.
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace cameo::shard
