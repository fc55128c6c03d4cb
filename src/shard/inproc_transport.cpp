#include "shard/inproc_transport.h"

#include <algorithm>
#include <mutex>

#include "common/check.h"
#include "common/ring_queue.h"
#include "common/rng.h"

namespace cameo::shard {

struct InprocTransport::Channel {
  /// Guards every field below; senders and the receiver share it.
  std::mutex mu;
  Rng rng{1};
  SimTime last_deliver = kTimeMin;
  /// Frames in send order; deliver_at never decreases along the queue.
  RingQueue<WireFrame> queue;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes = 0;
};

InprocTransport::InprocTransport(DelayModel delay, std::uint64_t seed)
    : delay_(delay), seed_(seed) {}

InprocTransport::~InprocTransport() {
  for (std::unique_ptr<Channel>& ch : channels_) {
    for (WireFrame& frame : ch->queue) ReleaseFrame(std::move(frame));
  }
}

void InprocTransport::Start(int num_shards) {
  CAMEO_EXPECTS(num_shards >= 1);
  CAMEO_EXPECTS(channels_.empty());
  num_shards_ = num_shards;
  channels_.resize(static_cast<std::size_t>(num_shards) * num_shards);
  for (int from = 0; from < num_shards; ++from) {
    for (int to = 0; to < num_shards; ++to) {
      auto ch = std::make_unique<Channel>();
      // Per-channel seed: every edge's delay sequence is a pure function of
      // (run seed, from, to), independent of traffic on other edges.
      ch->rng = Rng(seed_ * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(from) * 0x10001ULL +
                    static_cast<std::uint64_t>(to));
      channels_[static_cast<std::size_t>(from) * num_shards + to] =
          std::move(ch);
    }
  }
}

InprocTransport::Channel& InprocTransport::ChannelAt(int from, int to) {
  CAMEO_EXPECTS(from >= 0 && from < num_shards_ && to >= 0 &&
                to < num_shards_);
  return *channels_[static_cast<std::size_t>(from) * num_shards_ + to];
}

SimTime InprocTransport::Send(int from, int to, SimTime now, WireFrame frame) {
  Channel& ch = ChannelAt(from, to);
  std::lock_guard lock(ch.mu);
  Duration d = delay_.base;
  if (delay_.jitter > 0) {
    d += static_cast<Duration>(static_cast<double>(delay_.jitter) *
                               ch.rng.Uniform01());
  }
  // Monotone clamp: jitter never reorders a channel (FIFO links, like TCP).
  ch.last_deliver = std::max(ch.last_deliver, now + d);
  frame.deliver_at = ch.last_deliver;
  ch.bytes += frame.bytes.size();
  ++ch.sent;
  ch.queue.push_back(std::move(frame));
  return ch.last_deliver;
}

bool InprocTransport::Receive(int to, SimTime now, WireFrame& out,
                              int& from_out) {
  // Fixed source order keeps multi-channel interleaving deterministic for
  // the sim; each call pops at most one frame, so no source can starve
  // another within an event.
  for (int from = 0; from < num_shards_; ++from) {
    Channel& ch = ChannelAt(from, to);
    std::lock_guard lock(ch.mu);
    if (ch.queue.empty() || ch.queue.front().deliver_at > now) continue;
    out = std::move(ch.queue.front());
    ch.queue.pop_front();
    ++ch.received;
    from_out = from;
    return true;
  }
  return false;
}

TransportStats InprocTransport::stats() const {
  TransportStats s;
  for (const std::unique_ptr<Channel>& ch : channels_) {
    std::lock_guard lock(ch->mu);
    s.frames_sent += ch->sent;
    s.frames_received += ch->received;
    s.bytes_sent += ch->bytes;
  }
  return s;
}

}  // namespace cameo::shard
