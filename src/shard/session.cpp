#include "shard/session.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/ring_queue.h"

namespace cameo::shard {

namespace {

/// kTimeMax-aware min for timer deadlines.
SimTime MinTime(SimTime a, SimTime b) { return a < b ? a : b; }

}  // namespace

/// Sender half of a directed channel (owned by the `from` shard).
struct SessionLayer::SendState {
  struct Entry {
    std::uint64_t seq = 0;
    WireFrame frame;          // the stamped retained copy
    SimTime sent_at = 0;      // first transmission
    bool transmitted = false;
    bool retransmitted = false;  // Karn's rule: never an RTT sample
    bool sacked = false;
    bool fast_retransmitted = false;  // once per hole
  };

  mutable std::mutex mu;
  std::uint64_t next_seq = 1;  // guarded by mu
  /// Oldest first and seq-contiguous, so entry i holds seq front().seq + i;
  /// the `in_flight` transmitted entries are a prefix. Guarded by mu.
  RingQueue<Entry> unacked;
  int in_flight = 0;            // guarded by mu
  std::uint64_t peer_ack = 0;   // highest cumulative ack seen; guarded by mu
  bool has_rtt = false;         // guarded by mu
  Duration srtt = 0;            // guarded by mu
  Duration rttvar = 0;          // guarded by mu
  Duration rto = 0;             // fitted timeout, no backoff; guarded by mu
  Duration rto_current = 0;     // rto with backoff applied; guarded by mu
  SimTime rto_deadline = kTimeMax;  // guarded by mu
  Rng rng{1};                   // retransmit jitter; guarded by mu

  Entry& at(std::size_t i) {
    return unacked.begin()[static_cast<std::ptrdiff_t>(i)];
  }
};

/// Receiver half of a directed channel (owned by the `to` shard).
struct SessionLayer::RecvState {
  mutable std::mutex mu;
  /// (next_expected << kSackBits) | sack: the ack snapshot that stamping on
  /// the reverse channel's send path reads without taking `mu`. Written
  /// under `mu` whenever either half changes.
  std::atomic<std::uint64_t> ack_word{std::uint64_t{1} << kSackBits};
  /// Highest in-order seq released + 1; guarded by mu.
  std::uint64_t next_expected = 1;
  /// Bit i set: seq next_expected + i waits in the ring. Bit 0 is set only
  /// while a repaired run is being released. Guarded by mu.
  std::uint16_t sack = 0;
  /// Reorder ring of `window` slots, seq % window; a slot with no bytes is
  /// free. Every held seq lies in [next_expected, next_expected + window),
  /// so no two collide. Guarded by mu.
  std::vector<WireFrame> ring;
  std::uint64_t last_acked = 0;      // last cumulative ack sent; guarded by mu
  SimTime ack_deadline = kTimeMax;   // delayed-ack timer; guarded by mu
  SimTime release_clock = kTimeMin;  // monotone deliver_at clamp; guarded by mu

  void Publish() {
    ack_word.store((next_expected << kSackBits) | sack,
                   std::memory_order_relaxed);
  }

  bool Held(std::uint64_t seq) const {
    return seq - next_expected < ring.size() &&
           !ring[seq % ring.size()].bytes.empty();
  }

  /// Moves next_expected past a released frame: the bitmap slides down one
  /// seq and its top bit picks up the ring slot that just came into range.
  void Advance() {
    ++next_expected;
    sack = static_cast<std::uint16_t>(sack >> 1);
    if (Held(next_expected + kSackBits - 1)) {
      sack = static_cast<std::uint16_t>(sack | (1u << (kSackBits - 1)));
    }
    Publish();
  }

  /// Hands seq next_expected to the app, stamped with the channel's
  /// monotone release time, and arms the delayed ack. Returns whether the
  /// every-N threshold calls for an ack now.
  bool Deliver(WireFrame f, WireFrame& out, SimTime now) {
    const std::uint64_t seq = next_expected;
    Advance();
    ack_deadline = MinTime(ack_deadline, now + kAckDelay);
    release_clock = std::max(release_clock, f.deliver_at);
    f.deliver_at = release_clock;
    out = std::move(f);
    return seq - last_acked >= static_cast<std::uint64_t>(kAckEvery);
  }
};

struct SessionLayer::Channel {
  SendState send;
  RecvState recv;
};

SessionLayer::SessionLayer(SessionConfig cfg, Transport* transport)
    : cfg_(cfg), transport_(transport) {
  CAMEO_EXPECTS(transport_ != nullptr);
  CAMEO_EXPECTS(cfg_.window >= 1);
}

SessionLayer::~SessionLayer() {
  for (std::unique_ptr<Channel>& ch : channels_) {
    if (ch == nullptr) continue;
    for (SendState::Entry& e : ch->send.unacked) {
      ReleaseFrame(std::move(e.frame));
    }
    for (WireFrame& f : ch->recv.ring) {
      if (!f.bytes.empty()) ReleaseFrame(std::move(f));
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
      ch->send.rto = kRtoInitial;
      ch->send.rto_current = kRtoInitial;
      ch->send.rng = Rng(cfg_.seed * 0xA24BAED4963EE407ULL +
                         static_cast<std::uint64_t>(from) * 0x10001ULL +
                         static_cast<std::uint64_t>(to));
      ch->recv.ring.resize(static_cast<std::size_t>(cfg_.window));
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

SessionLayer::AckSnapshot SessionLayer::AckFor(int from, int to) const {
  const std::uint64_t w =
      ChannelAt(from, to).recv.ack_word.load(std::memory_order_relaxed);
  return {(w >> kSackBits) - 1, static_cast<std::uint16_t>(w)};
}

void SessionLayer::NoteAckSent(int from, int to) {
  RecvState& rs = ChannelAt(from, to).recv;
  std::lock_guard lock(rs.mu);
  rs.last_acked = rs.next_expected - 1;
  rs.ack_deadline = kTimeMax;
}

SimTime SessionLayer::TransmitLocked(int from, int to, SimTime now,
                                     WireFrame& stored, std::uint64_t seq) {
  const AckSnapshot a = AckFor(to, from);
  StampSession(stored, seq, a.ack, a.sack);
  WireFrame f = AcquireFrame();
  f.bytes = stored.bytes;
  const SimTime at = transport_->Send(from, to, now, std::move(f));
  NoteAckSent(to, from);  // piggybacked
  return at;
}

void SessionLayer::ArmRtoLocked(SendState& ss, SimTime now) const {
  ss.rto_deadline =
      ss.unacked.empty()
          ? kTimeMax
          : now + ss.rto_current +
                static_cast<Duration>(static_cast<double>(kRtoJitter) *
                                      ss.rng.Uniform01());
}

SimTime SessionLayer::Send(int from, int to, SimTime now, WireFrame frame) {
  sent_unique_.fetch_add(1, std::memory_order_relaxed);
  SendState& ss = ChannelAt(from, to).send;
  std::lock_guard lock(ss.mu);
  SendState::Entry e;
  e.seq = ss.next_seq++;
  e.frame = std::move(frame);

  // A full window queues the frame until acks free a slot. Never shed here
  // -- exact delivery conservation is the layer's contract.
  SimTime deliver = now;
  if (ss.in_flight < cfg_.window) {
    deliver = TransmitLocked(from, to, now, e.frame, e.seq);
    e.transmitted = true;
    e.sent_at = now;
    ++ss.in_flight;
  }
  ss.unacked.push_back(std::move(e));
  if (ss.rto_deadline == kTimeMax && ss.in_flight > 0) ArmRtoLocked(ss, now);
  return deliver;
}

void SessionLayer::ProcessAck(int self, int peer, AckSnapshot a, SimTime now,
                              std::vector<std::pair<int, SimTime>>* deliveries) {
  SendState& ss = ChannelAt(self, peer).send;
  std::lock_guard lock(ss.mu);
  if (ss.unacked.empty()) return;
  if (a.ack < ss.unacked.front().seq && a.sack == 0) return;  // nothing new

  // RTT sample: the send time of the newest frame this ack is the first
  // evidence of receipt for. Karn's rule skips retransmitted frames. A frame
  // cumulatively acked above a hole (one sacked or re-sent earlier) only
  // waited for the repair. And the receiver's previous ack covered seqs up
  // to peer_ack + kSackBits: a seq above that may have sat in the ring
  // unreported, so its first SACK bit or cumulative ack measures the wait.
  const std::uint64_t fresh_hi = ss.peer_ack + kSackBits;
  ss.peer_ack = std::max(ss.peer_ack, a.ack);
  SimTime sample_sent = kTimeMin;
  bool progress = false;
  bool clean = true;
  while (!ss.unacked.empty() && ss.unacked.front().seq <= a.ack) {
    SendState::Entry& e = ss.unacked.front();
    if (e.sacked || e.retransmitted) {
      clean = false;
    } else if (clean && e.seq <= fresh_hi) {
      sample_sent = e.sent_at;
    }
    --ss.in_flight;
    ReleaseFrame(std::move(e.frame));
    ss.unacked.pop_front();
    progress = true;
  }

  // Selective acks: bit i covers seq a.ack + 1 + i. A stale ack may name
  // seqs already released above; those bits are skipped.
  bool new_sack = false;
  if (!ss.unacked.empty()) {
    const std::uint64_t base = ss.unacked.front().seq;
    for (std::uint32_t bits = a.sack; bits != 0; bits &= bits - 1) {
      const std::uint64_t seq =
          a.ack + 1 + static_cast<std::uint64_t>(std::countr_zero(bits));
      if (seq < base) continue;
      const std::uint64_t idx = seq - base;
      if (idx >= static_cast<std::uint64_t>(ss.in_flight)) break;
      SendState::Entry& e = ss.at(idx);
      if (e.sacked) continue;
      e.sacked = true;
      new_sack = true;
      if (!e.retransmitted && seq <= fresh_hi) {
        sample_sent = std::max(sample_sent, e.sent_at);
      }
    }
  }

  if (sample_sent != kTimeMin) {
    // RFC 6298 (2.2)/(2.3), with the receiver's delayed-ack bound standing
    // in for the clock granularity G: an in-order frame's ack may wait that
    // long, so a shorter timer would fire on frames that arrived.
    // Threads driving one session may read a shared clock at different
    // moments, so an ack can be processed at a `now` before the send's.
    const Duration r = std::max<Duration>(now - sample_sent, 0);
    if (!ss.has_rtt) {
      ss.has_rtt = true;
      ss.srtt = r;
      ss.rttvar = r / 2;
    } else {
      const Duration err = ss.srtt > r ? ss.srtt - r : r - ss.srtt;
      ss.rttvar = (3 * ss.rttvar + err) / 4;
      ss.srtt = (7 * ss.srtt + r) / 8;
    }
    ss.rto = std::clamp(ss.srtt + std::max(kAckDelay, 4 * ss.rttvar),
                        Duration{1}, kRtoMax);
    ss.rto_current = ss.rto;
  }

  // Fast retransmit: a hole is an unsacked in-flight frame with kDupThresh
  // sacked frames above it. Every sacked frame sits within kSackBits of the
  // cumulative ack, so only that prefix can hold holes.
  bool resent = false;
  if (new_sack) {
    const int scan = std::min(ss.in_flight, kSackBits);
    std::uint32_t holes = 0;
    int above = 0;
    for (int i = scan - 1; i >= 0; --i) {
      const SendState::Entry& e = ss.at(static_cast<std::size_t>(i));
      if (e.sacked) {
        ++above;
      } else if (above >= kDupThresh && !e.fast_retransmitted) {
        holes |= 1u << i;
      }
    }
    for (; holes != 0; holes &= holes - 1) {  // oldest hole first
      SendState::Entry& e =
          ss.at(static_cast<std::size_t>(std::countr_zero(holes)));
      const SimTime at = TransmitLocked(self, peer, now, e.frame, e.seq);
      e.retransmitted = true;
      e.fast_retransmitted = true;
      fast_retransmits_.fetch_add(1, std::memory_order_relaxed);
      resent = true;
      if (deliveries != nullptr) deliveries->emplace_back(peer, at);
    }
  }

  if (progress) {
    // Forward progress ends any backoff and frees window capacity for
    // queued frames.
    ss.rto_current = ss.rto;
    for (auto it = ss.unacked.begin() + ss.in_flight;
         it != ss.unacked.end() && ss.in_flight < cfg_.window; ++it) {
      const SimTime at = TransmitLocked(self, peer, now, it->frame, it->seq);
      it->transmitted = true;
      it->sent_at = now;
      ++ss.in_flight;
      if (deliveries != nullptr) deliveries->emplace_back(peer, at);
    }
  }
  if (progress || resent) ArmRtoLocked(ss, now);
}

void SessionLayer::SendStandaloneAck(
    int self, int peer, SimTime now,
    std::vector<std::pair<int, SimTime>>* deliveries) {
  WireFrame f = AcquireFrame();
  EncodeAck(f);
  const AckSnapshot a = AckFor(peer, self);
  StampSession(f, 0, a.ack, a.sack);
  NoteAckSent(peer, self);
  const SimTime at = transport_->Send(self, peer, now, std::move(f));
  acks_sent_.fetch_add(1, std::memory_order_relaxed);
  if (deliveries != nullptr) deliveries->emplace_back(peer, at);
}

bool SessionLayer::Receive(int to, SimTime now, WireFrame& out, int& from) {
  const std::uint64_t window = static_cast<std::uint64_t>(cfg_.window);
  for (;;) {
    // 1. Release a held in-order frame first: per-channel order demands
    // the repaired hole's successors drain before any newer transport
    // arrival is even looked at.
    for (int src = 0; src < num_shards_; ++src) {
      if (src == to) continue;
      RecvState& rs = ChannelAt(src, to).recv;
      bool ack_now = false;
      {
        std::lock_guard lock(rs.mu);
        if ((rs.sack & 1u) == 0) continue;
        WireFrame& slot = rs.ring[rs.next_expected % window];
        WireFrame f = std::move(slot);
        slot.bytes.clear();
        ack_now = rs.Deliver(std::move(f), out, now);
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
    std::uint64_t seq = 0;
    AckSnapshot a;
    PeekSession(f, seq, a.ack, a.sack);
    ProcessAck(to, src, a, now, nullptr);

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
      const std::uint64_t ne = rs.next_expected;
      if (seq < ne || rs.Held(seq)) {
        // Duplicate (retransmit raced the ack, or an injected dup). Re-arm
        // an immediate ack: the sender clearly has not seen ours.
        dup_drops_.fetch_add(1, std::memory_order_relaxed);
        rs.ack_deadline = MinTime(rs.ack_deadline, now);
        ReleaseFrame(std::move(f));
      } else if (seq == ne) {
        ack_now = rs.Deliver(std::move(f), out, now);
        deliver = true;
      } else {
        // Out of order: hold it. The sender never has more than `window`
        // frames past our cumulative ack, so the ring has room. The first
        // kDupThresh held frames are acked at once, so the sender sees the
        // hole about one link delay after the third arrival; later ones
        // ride piggybacks or the delayed ack.
        const std::uint64_t ahead = seq - ne;
        CAMEO_CHECK(ahead < window && "frame beyond the session window");
        rs.ring[seq % window] = std::move(f);
        if (ahead < kSackBits) {
          rs.sack = static_cast<std::uint16_t>(rs.sack | (1u << ahead));
          rs.Publish();
        }
        out_of_order_.fetch_add(1, std::memory_order_relaxed);
        rs.ack_deadline = MinTime(rs.ack_deadline, now + kAckDelay);
        ack_now = std::popcount(rs.sack) <= kDupThresh;
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

    // Sender side: on expiry, re-send the oldest in-flight frame the
    // receiver has not sacked, then back off. When every in-flight frame is
    // sacked, the acks that would release them were lost: re-send the
    // oldest anyway, since only a duplicate makes the receiver ack again.
    SendState& ss = ChannelAt(shard, p).send;
    {
      std::lock_guard lock(ss.mu);
      if (ss.rto_deadline <= now && !ss.unacked.empty()) {
        std::size_t pick = 0;
        for (int i = 0; i < ss.in_flight; ++i) {
          if (!ss.at(static_cast<std::size_t>(i)).sacked) {
            pick = static_cast<std::size_t>(i);
            break;
          }
        }
        SendState::Entry& e = ss.at(pick);
        const SimTime at = TransmitLocked(shard, p, now, e.frame, e.seq);
        e.retransmitted = true;
        rto_retransmits_.fetch_add(1, std::memory_order_relaxed);
        if (deliveries != nullptr) deliveries->emplace_back(p, at);
        ss.rto_current = std::min(
            static_cast<Duration>(static_cast<double>(ss.rto_current) *
                                  kRtoBackoff),
            kRtoMax);
        ArmRtoLocked(ss, now);
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

Duration SessionLayer::CurrentRto(int from, int to) const {
  const SendState& ss = ChannelAt(from, to).send;
  std::lock_guard lock(ss.mu);
  return ss.rto;
}

TransportStats SessionLayer::stats() const {
  TransportStats s;
  s.fast_retransmits = fast_retransmits_.load(std::memory_order_relaxed);
  s.rto_retransmits = rto_retransmits_.load(std::memory_order_relaxed);
  s.retransmits = s.fast_retransmits + s.rto_retransmits;
  s.out_of_order = out_of_order_.load(std::memory_order_relaxed);
  s.dup_drops = dup_drops_.load(std::memory_order_relaxed);
  s.corrupt_drops = corrupt_drops_.load(std::memory_order_relaxed);
  s.acks_sent = acks_sent_.load(std::memory_order_relaxed);
  s.sent_unique = sent_unique_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cameo::shard
