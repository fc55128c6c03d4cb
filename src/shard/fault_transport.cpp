#include "shard/fault_transport.h"

#include "common/check.h"

namespace cameo::shard {

/// Per-channel fault state. The mutex serializes the Rng (senders on the
/// same edge contend only here and on the inner transport's channel lock)
/// and the held-frame queue that the reorder fault uses.
struct FaultInjectingTransport::Channel {
  std::mutex mu;
  Rng rng{1};  // guarded by mu
  /// Reorder holds: frames pulled out of send order, shipped after the
  /// channel's next send or flushed at the next receive poll.
  std::vector<WireFrame> held;  // guarded by mu
};

FaultInjectingTransport::FaultInjectingTransport(Transport* inner,
                                                FaultPlan plan)
    : inner_(inner), plan_(std::move(plan)) {
  CAMEO_EXPECTS(inner_ != nullptr);
}

FaultInjectingTransport::~FaultInjectingTransport() {
  for (std::unique_ptr<Channel>& ch : channels_) {
    if (ch == nullptr) continue;
    for (WireFrame& f : ch->held) ReleaseFrame(std::move(f));
  }
}

void FaultInjectingTransport::Start(int num_shards) {
  CAMEO_EXPECTS(num_shards >= 1);
  CAMEO_EXPECTS(channels_.empty());
  num_shards_ = num_shards;
  channels_.resize(static_cast<std::size_t>(num_shards) * num_shards);
  for (int from = 0; from < num_shards; ++from) {
    for (int to = 0; to < num_shards; ++to) {
      auto ch = std::make_unique<Channel>();
      // Same per-edge seeding discipline as InprocTransport: every channel's
      // fault schedule is a pure function of (plan seed, from, to).
      ch->rng = Rng(plan_.seed * 0xD1B54A32D192ED03ULL +
                    static_cast<std::uint64_t>(from) * 0x10001ULL +
                    static_cast<std::uint64_t>(to));
      channels_[static_cast<std::size_t>(from) * num_shards + to] =
          std::move(ch);
    }
  }
  inner_->Start(num_shards);
}

FaultInjectingTransport::Channel& FaultInjectingTransport::ChannelAt(int from,
                                                                     int to) {
  CAMEO_EXPECTS(from >= 0 && from < num_shards_ && to >= 0 &&
                to < num_shards_);
  return *channels_[static_cast<std::size_t>(from) * num_shards_ + to];
}

bool FaultInjectingTransport::Partitioned(int from, int to,
                                          SimTime now) const {
  for (const PartitionWindow& w : plan_.partitions) {
    if (now < w.start || now >= w.end) continue;
    const bool ab = (w.a == -1 || w.a == from) && (w.b == -1 || w.b == to);
    const bool ba = (w.a == -1 || w.a == to) && (w.b == -1 || w.b == from);
    if (ab || ba) return true;
  }
  return false;
}

bool FaultInjectingTransport::Stalled(int shard, SimTime now) const {
  for (const StallWindow& w : plan_.stalls) {
    if ((w.shard == -1 || w.shard == shard) && now >= w.start && now < w.end) {
      return true;
    }
  }
  return false;
}

void FaultInjectingTransport::FlushHeldLocked(Channel& ch, int from, int to,
                                              SimTime now) {
  for (WireFrame& f : ch.held) {
    inner_->Send(from, to, now, std::move(f));
  }
  ch.held.clear();
}

SimTime FaultInjectingTransport::Send(int from, int to, SimTime now,
                                      WireFrame frame) {
  Channel& ch = ChannelAt(from, to);
  std::lock_guard lock(ch.mu);

  if (Partitioned(from, to, now)) {
    partition_dropped_.fetch_add(1, std::memory_order_relaxed);
    ReleaseFrame(std::move(frame));
    // The sender cannot observe the loss; report the send time like a
    // fire-and-forget datagram. Chaos-mode callers tolerate the dry poll.
    return now;
  }
  if (plan_.drop_rate > 0 && ch.rng.Chance(plan_.drop_rate)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    ReleaseFrame(std::move(frame));
    return now;
  }

  SimTime send_at = now;
  if (plan_.delay_rate > 0 && ch.rng.Chance(plan_.delay_rate)) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
    send_at += kDelaySpike;
  }
  if (plan_.corrupt_rate > 0 && ch.rng.Chance(plan_.corrupt_rate) &&
      !frame.bytes.empty()) {
    corrupted_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t idx = static_cast<std::size_t>(ch.rng.UniformInt(
        0, static_cast<std::int64_t>(frame.bytes.size()) - 1));
    frame.bytes[idx] ^= 0xFF;  // checksum-visible, whatever the byte
  }

  const bool dup = plan_.dup_rate > 0 && ch.rng.Chance(plan_.dup_rate);
  WireFrame copy;
  if (dup) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    copy = AcquireFrame();
    copy.bytes = frame.bytes;
  }

  SimTime deliver_at;
  if (plan_.reorder_rate > 0 && ch.rng.Chance(plan_.reorder_rate)) {
    // Hold this frame back; it ships behind the channel's next send (or at
    // the next receive poll), landing out of order on the FIFO inner link.
    reordered_.fetch_add(1, std::memory_order_relaxed);
    frame.deliver_at = send_at;
    ch.held.push_back(std::move(frame));
    deliver_at = send_at;  // estimate; chaos callers tolerate the dry poll
  } else {
    deliver_at = inner_->Send(from, to, send_at, std::move(frame));
    FlushHeldLocked(ch, from, to, send_at);
  }
  if (dup) {
    inner_->Send(from, to, send_at, std::move(copy));
  }
  return deliver_at;
}

bool FaultInjectingTransport::Receive(int to, SimTime now, WireFrame& out,
                                      int& from) {
  if (Stalled(to, now)) return false;
  // Flush any held (reordered) frames destined for this shard so they cannot
  // be stranded when their channel goes quiet. Only the reorder fault holds
  // frames.
  for (int src = 0; plan_.reorder_rate > 0 && src < num_shards_; ++src) {
    Channel& ch = ChannelAt(src, to);
    std::lock_guard lock(ch.mu);
    FlushHeldLocked(ch, src, to, now);
  }
  return inner_->Receive(to, now, out, from);
}

TransportStats FaultInjectingTransport::stats() const {
  TransportStats s = inner_->stats();
  s.faults_dropped = dropped_.load(std::memory_order_relaxed);
  s.faults_duplicated = duplicated_.load(std::memory_order_relaxed);
  s.faults_corrupted = corrupted_.load(std::memory_order_relaxed);
  s.faults_delayed = delayed_.load(std::memory_order_relaxed);
  s.faults_reordered = reordered_.load(std::memory_order_relaxed);
  s.partition_dropped = partition_dropped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cameo::shard
