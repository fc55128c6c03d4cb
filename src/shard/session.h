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
//  - **Cumulative acks.** Every outbound frame piggybacks the highest
//    in-order seq received on the *reverse* channel. When no reverse
//    traffic flows, a delayed-ack timer (or an every-N backlog threshold)
//    emits a standalone header-only kAck frame. Acks are themselves
//    unsequenced datagrams: losing one only delays the sender, it can never
//    deadlock the protocol.
//  - **Retransmit.** A timeout on the oldest unacked frame retransmits just
//    that frame (go-back-light: the receiver's reorder buffer holds
//    later arrivals, so one repaired hole releases everything behind it),
//    with exponential backoff and seeded jitter between attempts.
//  - **Dedup / reorder buffer.** The receiver releases frames to the app
//    strictly in seq order: duplicates (seq already delivered or already
//    buffered) are counted and dropped; out-of-order arrivals wait in a
//    bounded buffer; corrupted frames fail the wire checksum and are
//    dropped before any session state is touched -- the retransmit path
//    repairs the hole they leave.
//  - **Bounded in-flight window.** At most `window` stamped frames per
//    channel are on the wire; further sends queue in an unbounded outbox
//    (conservation requires never shedding wire frames -- overload shedding
//    happens at admission, shard_runtime.h) and drain as acks arrive.
//
// Determinism: all timers are driven by the caller's SimTime and all jitter
// comes from per-channel seeded Rngs, so a fixed-seed chaos run -- faults,
// retransmits, backoff and all -- replays bit-for-bit.
//
// Delivery times released to the app are clamped monotone per channel, so
// the progress watermark of a batch that waited in the reorder buffer never
// regresses behind a later-released frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
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
  /// Max stamped-and-transmitted frames per channel awaiting ack.
  int window = 64;
  /// Retransmit timer: initial value, cap, backoff multiplier, and the
  /// width of the seeded uniform jitter added to every arming.
  Duration rto_initial = Millis(10);
  Duration rto_max = Millis(500);
  double rto_backoff = 2.0;
  Duration rto_jitter = Millis(2);
  /// Standalone-ack fallback: a delayed-ack timer, plus an immediate ack
  /// once this many deliveries are unacknowledged.
  Duration ack_delay = Millis(3);
  int ack_every = 8;
  /// Receive-side reorder buffer cap per channel (frames beyond it are
  /// dropped and repaired by retransmission).
  std::size_t reorder_buffer = 256;
  std::uint64_t seed = 1;
};

class SessionLayer {
 public:
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
  bool Receive(int to, SimTime now, WireFrame& out, int& from);

  /// Fires every due timer owned by `shard`: retransmits on channels it
  /// sends on, standalone acks on channels it receives on. Each frame put
  /// on the wire appends (peer, deliver_at) to `deliveries` so a
  /// discrete-event caller can schedule receive polls. Returns the next
  /// timer deadline for `shard` (kTimeMax when idle).
  SimTime Service(int shard, SimTime now,
                  std::vector<std::pair<int, SimTime>>* deliveries);

  /// Earliest pending timer for `shard` without firing anything.
  SimTime NextDeadline(int shard) const;

  /// Session counters only (retransmits, dup/corrupt drops, acks_sent,
  /// sent_unique, delivered); merged over the raw transport's stats by
  /// ShardRuntime::transport_stats().
  TransportStats stats() const;

 private:
  struct SendState;
  struct RecvState;
  struct Channel;

  Channel& ChannelAt(int from, int to);
  const Channel& ChannelAt(int from, int to) const;

  /// Cumulative ack value for the (from, to) channel as seen by its
  /// receiver `to` -- stamped into reverse-channel traffic.
  std::uint64_t AckValueFor(int from, int to) const;
  /// Records that the ack for (from, to) has been communicated (piggybacked
  /// or standalone), cancelling the delayed-ack timer.
  void NoteAckSent(int from, int to);

  /// Processes a cumulative ack received by `self` from `peer`: releases
  /// acked retransmit-buffer entries on channel (self, peer) and transmits
  /// queued frames into the freed window.
  void ProcessAck(int self, int peer, std::uint64_t ack, SimTime now,
                  std::vector<std::pair<int, SimTime>>* deliveries);

  /// Ships a clone of an entry's stamped frame with a freshly patched
  /// piggyback ack. Caller holds the (from, to) sender-state mutex.
  SimTime TransmitLocked(int from, int to, SimTime now,
                         const WireFrame& stored);

  void SendStandaloneAck(int self, int peer, SimTime now,
                         std::vector<std::pair<int, SimTime>>* deliveries);

  SessionConfig cfg_;
  Transport* transport_;
  int num_shards_ = 0;
  std::vector<std::unique_ptr<Channel>> channels_;

  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> dup_drops_{0};
  std::atomic<std::uint64_t> corrupt_drops_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
  std::atomic<std::uint64_t> sent_unique_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace cameo::shard
