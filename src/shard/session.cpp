#include "shard/session.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace cameo::shard {

namespace {

/// kTimeMax-aware min for timer deadlines.
SimTime MinTime(SimTime a, SimTime b) { return a < b ? a : b; }

}  // namespace

/// Sender half of a directed channel (owned by the `from` shard).
struct SessionLayer::SendState {
  struct Entry {
    std::uint64_t seq = 0;
    WireFrame frame;  // the stamped retained copy
    bool transmitted = false;
  };

  mutable std::mutex mu;
  std::uint64_t next_seq = 1;   // guarded by mu
  std::deque<Entry> unacked;    // oldest first; guarded by mu
  int in_flight = 0;            // transmitted && unacked; guarded by mu
  Duration rto_current = 0;     // guarded by mu
  SimTime rto_deadline = kTimeMax;  // guarded by mu
  Rng rng{1};                   // retransmit jitter; guarded by mu
  std::uint64_t queue_highwater = 0;  // max outbox depth seen; guarded by mu
};

/// Receiver half of a directed channel (owned by the `to` shard).
struct SessionLayer::RecvState {
  mutable std::mutex mu;
  /// Highest in-order seq delivered + 1. Atomic so ack stamping on the
  /// reverse channel's send path can read it without taking `mu`.
  std::atomic<std::uint64_t> next_expected{1};
  std::map<std::uint64_t, WireFrame> reorder;  // guarded by mu
  std::uint64_t last_acked = 0;      // last cumulative ack sent; guarded by mu
  SimTime ack_deadline = kTimeMax;   // delayed-ack timer; guarded by mu
  SimTime release_clock = kTimeMin;  // monotone deliver_at clamp; guarded by mu
};

struct SessionLayer::Channel {
  SendState send;
  RecvState recv;
};

SessionLayer::SessionLayer(SessionConfig cfg, Transport* transport)
    : cfg_(cfg), transport_(transport) {
  CAMEO_EXPECTS(transport_ != nullptr);
  CAMEO_EXPECTS(cfg_.window >= 1);
  CAMEO_EXPECTS(cfg_.rto_initial > 0 && cfg_.rto_max >= cfg_.rto_initial);
  CAMEO_EXPECTS(cfg_.rto_backoff >= 1.0);
}

SessionLayer::~SessionLayer() {
  for (std::unique_ptr<Channel>& ch : channels_) {
    if (ch == nullptr) continue;
    for (SendState::Entry& e : ch->send.unacked) {
      ReleaseFrame(std::move(e.frame));
    }
    for (auto& [seq, frame] : ch->recv.reorder) {
      ReleaseFrame(std::move(frame));
    }
  }
}

void SessionLayer::Start(int num_shards) {
  CAMEO_EXPECTS(num_shards >= 1);
  CAMEO_EXPECTS(channels_.empty());
  num_shards_ = num_shards;
  channels_.resize(static_cast<std::size_t>(num_shards) * num_shards);
  for (int from = 0; from < num_shards; ++from) {
    for (int to = 0; to < num_shards; ++to) {
      auto ch = std::make_unique<Channel>();
      ch->send.rto_current = cfg_.rto_initial;
      ch->send.rng = Rng(cfg_.seed * 0xA24BAED4963EE407ULL +
                         static_cast<std::uint64_t>(from) * 0x10001ULL +
                         static_cast<std::uint64_t>(to));
      channels_[static_cast<std::size_t>(from) * num_shards + to] =
          std::move(ch);
    }
  }
}

SessionLayer::Channel& SessionLayer::ChannelAt(int from, int to) {
  CAMEO_EXPECTS(from >= 0 && from < num_shards_ && to >= 0 &&
                to < num_shards_);
  return *channels_[static_cast<std::size_t>(from) * num_shards_ + to];
}

const SessionLayer::Channel& SessionLayer::ChannelAt(int from, int to) const {
  CAMEO_EXPECTS(from >= 0 && from < num_shards_ && to >= 0 &&
                to < num_shards_);
  return *channels_[static_cast<std::size_t>(from) * num_shards_ + to];
}

std::uint64_t SessionLayer::AckValueFor(int from, int to) const {
  return ChannelAt(from, to)
             .recv.next_expected.load(std::memory_order_relaxed) -
         1;
}

void SessionLayer::NoteAckSent(int from, int to) {
  RecvState& rs = ChannelAt(from, to).recv;
  std::lock_guard lock(rs.mu);
  rs.last_acked = rs.next_expected.load(std::memory_order_relaxed) - 1;
  rs.ack_deadline = kTimeMax;
}

SimTime SessionLayer::TransmitLocked(int from, int to, SimTime now,
                                     const WireFrame& stored) {
  WireFrame f = AcquireFrame();
  f.bytes = stored.bytes;
  return transport_->Send(from, to, now, std::move(f));
}

SimTime SessionLayer::Send(int from, int to, SimTime now, WireFrame frame) {
  sent_unique_.fetch_add(1, std::memory_order_relaxed);
  SendState& ss = ChannelAt(from, to).send;
  std::lock_guard lock(ss.mu);
  SendState::Entry e;
  e.seq = ss.next_seq++;
  StampSession(frame, e.seq, AckValueFor(to, from));
  e.frame = std::move(frame);

  SimTime deliver = now;
  if (ss.in_flight < cfg_.window) {
    deliver = TransmitLocked(from, to, now, e.frame);
    e.transmitted = true;
    ++ss.in_flight;
    NoteAckSent(to, from);  // piggybacked
    if (ss.rto_deadline == kTimeMax) {
      ss.rto_deadline = now + ss.rto_current +
                        static_cast<Duration>(
                            static_cast<double>(cfg_.rto_jitter) *
                            ss.rng.Uniform01());
    }
  } else {
    // Window full: the frame waits its turn. Never shed here -- exact
    // delivery conservation is the layer's contract; overload shedding
    // belongs at admission (shard_runtime.h).
    const std::uint64_t depth =
        ss.unacked.size() + 1 - static_cast<std::uint64_t>(ss.in_flight);
    ss.queue_highwater = std::max(ss.queue_highwater, depth);
  }
  ss.unacked.push_back(std::move(e));
  return deliver;
}

void SessionLayer::ProcessAck(int self, int peer, std::uint64_t ack,
                              SimTime now,
                              std::vector<std::pair<int, SimTime>>* deliveries) {
  SendState& ss = ChannelAt(self, peer).send;
  std::lock_guard lock(ss.mu);
  bool progress = false;
  while (!ss.unacked.empty() && ss.unacked.front().seq <= ack) {
    SendState::Entry e = std::move(ss.unacked.front());
    ss.unacked.pop_front();
    if (e.transmitted) --ss.in_flight;
    ReleaseFrame(std::move(e.frame));
    progress = true;
  }
  if (!progress) return;
  // Forward progress resets the backoff and frees window capacity for any
  // queued frames.
  ss.rto_current = cfg_.rto_initial;
  bool piggybacked = false;
  for (SendState::Entry& e : ss.unacked) {
    if (ss.in_flight >= cfg_.window) break;
    if (e.transmitted) continue;
    StampSession(e.frame, e.seq, AckValueFor(peer, self));
    const SimTime at = TransmitLocked(self, peer, now, e.frame);
    e.transmitted = true;
    ++ss.in_flight;
    piggybacked = true;
    if (deliveries != nullptr) deliveries->emplace_back(peer, at);
  }
  if (piggybacked) NoteAckSent(peer, self);
  ss.rto_deadline =
      ss.unacked.empty()
          ? kTimeMax
          : now + ss.rto_current +
                static_cast<Duration>(static_cast<double>(cfg_.rto_jitter) *
                                      ss.rng.Uniform01());
}

void SessionLayer::SendStandaloneAck(
    int self, int peer, SimTime now,
    std::vector<std::pair<int, SimTime>>* deliveries) {
  WireFrame f = AcquireFrame();
  EncodeAck(f);
  StampSession(f, 0, AckValueFor(peer, self));
  NoteAckSent(peer, self);
  const SimTime at = transport_->Send(self, peer, now, std::move(f));
  acks_sent_.fetch_add(1, std::memory_order_relaxed);
  if (deliveries != nullptr) deliveries->emplace_back(peer, at);
}

bool SessionLayer::Receive(int to, SimTime now, WireFrame& out, int& from) {
  for (;;) {
    // 1. Release a buffered in-order frame first: per-channel order demands
    // the repaired hole's successors drain before any newer transport
    // arrival is even looked at.
    for (int src = 0; src < num_shards_; ++src) {
      if (src == to) continue;
      RecvState& rs = ChannelAt(src, to).recv;
      bool ack_now = false;
      {
        std::lock_guard lock(rs.mu);
        const std::uint64_t ne =
            rs.next_expected.load(std::memory_order_relaxed);
        auto it = rs.reorder.find(ne);
        if (it == rs.reorder.end()) continue;
        WireFrame f = std::move(it->second);
        rs.reorder.erase(it);
        rs.next_expected.store(ne + 1, std::memory_order_relaxed);
        rs.ack_deadline = MinTime(rs.ack_deadline, now + cfg_.ack_delay);
        ack_now = ne - rs.last_acked >=
                  static_cast<std::uint64_t>(cfg_.ack_every);
        rs.release_clock = std::max(rs.release_clock, f.deliver_at);
        f.deliver_at = rs.release_clock;
        out = std::move(f);
      }
      if (ack_now) SendStandaloneAck(to, src, now, nullptr);
      delivered_.fetch_add(1, std::memory_order_relaxed);
      from = src;
      return true;
    }

    // 2. Pull the next raw frame off the transport.
    WireFrame f;
    int src = -1;
    if (!transport_->Receive(to, now, f, src)) return false;
    if (!ValidateFrame(f)) {
      // Corruption (or truncation) is caught before any session state is
      // touched; the hole it leaves repairs itself via retransmission.
      corrupt_drops_.fetch_add(1, std::memory_order_relaxed);
      ReleaseFrame(std::move(f));
      continue;
    }
    std::uint64_t seq = 0, ack = 0;
    PeekSession(f, seq, ack);
    ProcessAck(to, src, ack, now, nullptr);

    FrameKind kind = FrameKind::kData;
    PeekFrameKind(f, kind);
    if (kind == FrameKind::kAck) {
      ReleaseFrame(std::move(f));
      continue;
    }
    if (seq == 0) {
      // Bare (unsequenced) frame: a peer running without the session layer.
      out = std::move(f);
      from = src;
      return true;
    }

    RecvState& rs = ChannelAt(src, to).recv;
    bool deliver = false;
    bool ack_now = false;
    {
      std::lock_guard lock(rs.mu);
      const std::uint64_t ne =
          rs.next_expected.load(std::memory_order_relaxed);
      if (seq < ne || rs.reorder.count(seq) != 0) {
        // Duplicate (retransmit raced the ack, or an injected dup). Re-arm
        // an immediate ack: the sender clearly has not seen ours.
        dup_drops_.fetch_add(1, std::memory_order_relaxed);
        rs.ack_deadline = MinTime(rs.ack_deadline, now);
        ReleaseFrame(std::move(f));
      } else if (seq == ne) {
        rs.next_expected.store(ne + 1, std::memory_order_relaxed);
        rs.ack_deadline = MinTime(rs.ack_deadline, now + cfg_.ack_delay);
        ack_now = ne - rs.last_acked >=
                  static_cast<std::uint64_t>(cfg_.ack_every);
        rs.release_clock = std::max(rs.release_clock, f.deliver_at);
        f.deliver_at = rs.release_clock;
        out = std::move(f);
        deliver = true;
      } else {
        // Out of order: park it (bounded; an overflow drop is repaired by
        // the sender's retransmit) and ask for the hole.
        if (rs.reorder.size() < cfg_.reorder_buffer) {
          rs.reorder.emplace(seq, std::move(f));
        } else {
          ReleaseFrame(std::move(f));
        }
        rs.ack_deadline = MinTime(rs.ack_deadline, now + cfg_.ack_delay);
      }
    }
    if (ack_now) SendStandaloneAck(to, src, now, nullptr);
    if (deliver) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      from = src;
      return true;
    }
  }
}

SimTime SessionLayer::Service(int shard, SimTime now,
                              std::vector<std::pair<int, SimTime>>* deliveries) {
  SimTime next = kTimeMax;
  for (int p = 0; p < num_shards_; ++p) {
    if (p == shard) continue;

    // Sender side: RTO-driven retransmit of the oldest in-flight frame.
    SendState& ss = ChannelAt(shard, p).send;
    {
      std::lock_guard lock(ss.mu);
      if (ss.rto_deadline <= now && !ss.unacked.empty()) {
        for (SendState::Entry& e : ss.unacked) {
          if (!e.transmitted) continue;
          StampSession(e.frame, e.seq, AckValueFor(p, shard));
          const SimTime at = TransmitLocked(shard, p, now, e.frame);
          retransmits_.fetch_add(1, std::memory_order_relaxed);
          NoteAckSent(p, shard);
          if (deliveries != nullptr) deliveries->emplace_back(p, at);
          break;  // go-back-light: one repaired hole releases the rest
        }
        ss.rto_current = std::min(
            static_cast<Duration>(static_cast<double>(ss.rto_current) *
                                  cfg_.rto_backoff),
            cfg_.rto_max);
        ss.rto_deadline =
            now + ss.rto_current +
            static_cast<Duration>(static_cast<double>(cfg_.rto_jitter) *
                                  ss.rng.Uniform01());
      } else if (ss.rto_deadline <= now) {
        ss.rto_deadline = kTimeMax;  // everything acked meanwhile
      }
      next = MinTime(next, ss.rto_deadline);
    }

    // Receiver side: delayed standalone ack for channels into this shard.
    RecvState& rs = ChannelAt(p, shard).recv;
    bool send_ack = false;
    {
      std::lock_guard lock(rs.mu);
      send_ack = rs.ack_deadline <= now;
    }
    if (send_ack) SendStandaloneAck(shard, p, now, deliveries);
    {
      std::lock_guard lock(rs.mu);
      next = MinTime(next, rs.ack_deadline);
    }
  }
  return next;
}

SimTime SessionLayer::NextDeadline(int shard) const {
  SimTime next = kTimeMax;
  for (int p = 0; p < num_shards_; ++p) {
    if (p == shard) continue;
    const Channel& out_ch = ChannelAt(shard, p);
    const Channel& in_ch = ChannelAt(p, shard);
    {
      std::lock_guard lock(out_ch.send.mu);
      next = MinTime(next, out_ch.send.rto_deadline);
    }
    {
      std::lock_guard lock(in_ch.recv.mu);
      next = MinTime(next, in_ch.recv.ack_deadline);
    }
  }
  return next;
}

TransportStats SessionLayer::stats() const {
  TransportStats s;
  s.retransmits = retransmits_.load(std::memory_order_relaxed);
  s.dup_drops = dup_drops_.load(std::memory_order_relaxed);
  s.corrupt_drops = corrupt_drops_.load(std::memory_order_relaxed);
  s.acks_sent = acks_sent_.load(std::memory_order_relaxed);
  s.sent_unique = sent_unique_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cameo::shard
