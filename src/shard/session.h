// SessionLayer: reliable exactly-once ordered delivery over a lossy
// Transport -- the piece that lets the cross-shard watermark contract
// (transport.h) survive the fault taxonomy of fault_transport.h.
//
// The design is a compact TCP-like sliding-window protocol per directed
// (from, to) channel:
//
//  - **Sequencing.** Every app frame (data and reply alike) is stamped with
//    a per-channel sequence number starting at 1 (wire.h StampSession; seq 0
//    means "bare frame", which bypasses the session entirely). The stamped
//    copy is retained by the sender until acknowledged.
//  - **Cumulative + selective acks.** Every outbound frame piggybacks the
//    highest in-order seq released on the *reverse* channel, plus a 16-bit
//    SACK bitmap (bit i: the receiver holds seq ack+1+i). Both come from one
//    lock-free snapshot of the receiver. The first kDupThresh frames held
//    behind a hole are acked at once with a standalone header-only kAck
//    frame; otherwise, when no reverse traffic flows, a delayed-ack timer
//    (or an every-N backlog threshold) emits one. Acks are themselves
//    unsequenced datagrams: losing one only delays the sender, it can never
//    deadlock the protocol.
//  - **Fast retransmit.** The sender reads every ack, even one with no
//    cumulative progress. An unsacked in-flight frame with at least
//    kDupThresh (3) sacked frames above it is a hole: it is re-sent at once,
//    once per hole, about one round trip after the loss.
//  - **RTT-fitted retransmit timer.** The timer follows RFC 6298: SRTT and
//    RTTVAR from measured round trips, RTO = SRTT + max(kAckDelay,
//    4 RTTVAR) capped at kRtoMax, exponential backoff with seeded jitter
//    between expiries, and `kRtoInitial` only until the first sample. A
//    sample comes only from a frame's first evidence of receipt -- its SACK
//    bit, or a cumulative ack with no hole below it -- for a seq the
//    receiver's previous ack already covered, and never from a
//    retransmitted frame (Karn's rule): a frame released from the reorder
//    ring after a repair measures the repair, not the link. On expiry the
//    oldest unsacked in-flight frame is re-sent (the oldest one, if every
//    frame is sacked and only the acks were lost).
//  - **Dedup / reorder ring.** The receiver releases frames to the app
//    strictly in seq order: duplicates (seq already delivered or already
//    held) are counted and dropped; out-of-order arrivals wait in a ring of
//    `window` slots indexed by seq. The ring cannot overflow -- the sender
//    never has more than `window` frames past the cumulative ack -- so the
//    receive side never drops a frame. Corrupted frames fail the wire
//    checksum and are dropped before any session state is touched; the
//    retransmit path repairs the hole they leave.
//  - **Bounded in-flight window.** At most `window` stamped frames per
//    channel are on the wire; further sends queue in an unbounded outbox
//    (conservation requires never shedding wire frames) and drain as acks
//    arrive.
//
// Determinism: all timers are driven by the caller's SimTime and all jitter
// comes from per-channel seeded Rngs, so a fixed-seed chaos run -- faults,
// retransmits, backoff and all -- replays bit-for-bit.
//
// Delivery times released to the app are clamped monotone per channel, so
// the progress watermark of a batch that waited in the reorder ring never
// regresses behind a later-released frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "shard/transport.h"

namespace cameo::shard {

struct SessionConfig {
  bool enabled = false;
  /// Max stamped-and-transmitted frames per channel awaiting a cumulative
  /// ack; also the receiver's reorder-ring size.
  int window = 64;
  std::uint64_t seed = 1;
};

class SessionLayer {
 public:
  /// An unsacked frame with this many sacked frames above it is re-sent.
  static constexpr int kDupThresh = 3;
  /// Seqs after the cumulative ack that one SACK bitmap covers.
  static constexpr int kSackBits = 16;
  /// Retransmit timer: the value used until the first RTT sample, the cap,
  /// the backoff multiplier, and the width of the seeded uniform jitter
  /// added to every arming.
  static constexpr Duration kRtoInitial = Millis(10);
  static constexpr Duration kRtoMax = Millis(500);
  static constexpr double kRtoBackoff = 2.0;
  static constexpr Duration kRtoJitter = Millis(2);
  /// Standalone-ack fallback for in-order arrivals: a delayed-ack timer,
  /// plus an immediate ack once this many deliveries are unacknowledged.
  /// The retransmit timer never fires sooner than one kAckDelay past SRTT.
  static constexpr Duration kAckDelay = Millis(3);
  static constexpr int kAckEvery = 8;
  static_assert(kRtoInitial > 0 && kRtoMax >= kRtoInitial);
  static_assert(kRtoBackoff >= 1.0);

  /// `transport` is not owned and must already be Start()ed by the caller
  /// before traffic flows.
  SessionLayer(SessionConfig cfg, Transport* transport);
  ~SessionLayer();

  void Start(int num_shards);

  /// Stamps, retains, and ships `frame` on the (from, to) channel (or queues
  /// it when the window is full). Returns the modeled delivery time of the
  /// transmission, or `now` when queued.
  SimTime Send(int from, int to, SimTime now, WireFrame frame);

  /// Produces the next in-order app frame addressed to `to`, draining the
  /// transport (processing acks, dups, corruption, buffering out-of-order
  /// arrivals) as needed. Returns false when nothing is deliverable yet.
  /// Every frame it hands out has passed ValidateFrame.
  bool Receive(int to, SimTime now, WireFrame& out, int& from);

  /// Fires every due timer owned by `shard`: retransmits on channels it
  /// sends on, standalone acks on channels it receives on. Each frame put
  /// on the wire appends (peer, deliver_at) to `deliveries` so a
  /// discrete-event caller can schedule receive polls. Returns the next
  /// timer deadline for `shard` (kTimeMax when idle).
  SimTime Service(int shard, SimTime now,
                  std::vector<std::pair<int, SimTime>>* deliveries);

  /// Current retransmit timeout of the (from, to) channel, without backoff
  /// or jitter: `kRtoInitial` until the first RTT sample.
  Duration CurrentRto(int from, int to) const;

  /// Session counters only (retransmits and their fast/timeout split,
  /// out-of-order arrivals, dup/corrupt drops, acks_sent, sent_unique,
  /// delivered); merged over the raw transport's stats by
  /// ShardRuntime::transport_stats().
  TransportStats stats() const;

 private:
  struct SendState;
  struct RecvState;
  struct Channel;
  /// One receiver's ack state as it goes on the wire.
  struct AckSnapshot {
    std::uint64_t ack = 0;
    std::uint16_t sack = 0;
  };

  Channel& ChannelAt(int from, int to);
  const Channel& ChannelAt(int from, int to) const;

  /// Cumulative ack and SACK bitmap for the (from, to) channel as seen by
  /// its receiver `to` -- stamped into reverse-channel traffic.
  AckSnapshot AckFor(int from, int to) const;
  /// Records that the ack for (from, to) has been communicated (piggybacked
  /// or standalone), cancelling the delayed-ack timer.
  void NoteAckSent(int from, int to);

  /// Processes an ack received by `self` from `peer` for channel
  /// (self, peer): releases cumulatively acked frames, marks sacked ones,
  /// takes an RTT sample, fast-retransmits holes, and transmits queued
  /// frames into the freed window.
  void ProcessAck(int self, int peer, AckSnapshot a, SimTime now,
                  std::vector<std::pair<int, SimTime>>* deliveries);

  /// Re-stamps a retained frame with a fresh piggyback ack and ships a
  /// clone of it. Caller holds the (from, to) sender-state mutex.
  SimTime TransmitLocked(int from, int to, SimTime now, WireFrame& stored,
                         std::uint64_t seq);

  /// Arms the retransmit timer `rto` (plus jitter) past `now`, or disarms it
  /// when nothing awaits an ack. Caller holds the sender-state mutex.
  void ArmRtoLocked(SendState& ss, SimTime now) const;

  void SendStandaloneAck(int self, int peer, SimTime now,
                         std::vector<std::pair<int, SimTime>>* deliveries);

  SessionConfig cfg_;
  Transport* transport_;
  int num_shards_ = 0;
  std::vector<std::unique_ptr<Channel>> channels_;

  std::atomic<std::uint64_t> fast_retransmits_{0};
  std::atomic<std::uint64_t> rto_retransmits_{0};
  std::atomic<std::uint64_t> out_of_order_{0};
  std::atomic<std::uint64_t> dup_drops_{0};
  std::atomic<std::uint64_t> corrupt_drops_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
  std::atomic<std::uint64_t> sent_unique_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace cameo::shard
