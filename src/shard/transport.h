// Transport: the inter-shard channel abstraction.
//
// Shards exchange only serialized WireFrames; a Transport provides one
// logical channel per directed (from, to) shard pair with two guarantees the
// cross-shard watermark contract depends on:
//
//  - **Serialized**: a frame is delivered exactly once, intact (the wire
//    checksum catches corruption; a transport never splits or merges
//    frames).
//  - **Ordered per edge**: frames sent on one (from, to) channel are
//    received in send order, and their modeled delivery times are
//    monotonically non-decreasing. This is what lets a batch's `progress`
//    act as a watermark across machines -- progress on a channel never
//    regresses, so the receiving operator's frontier only moves forward
//    (same contract the in-process mailbox gives the scheduler).
//
// Channels between different shard pairs are independent: no cross-channel
// ordering is promised, exactly like TCP connections between machine pairs.
//
// Send() returns the modeled delivery time so a discrete-event caller can
// schedule the receive; wall-clock callers ignore it and poll Receive.
// Implementations:
//  - InprocTransport (inproc_transport.h): in-memory channels, one locked
//    FIFO each, with a seeded delay distribution -- the sim's deterministic
//    stand-in for a network.
//  - FaultInjectingTransport (fault_transport.h): a decorator that drops,
//    duplicates, reorders and corrupts frames of the transport it wraps.
#pragma once

#include <cstdint>
#include <string>

#include "common/time.h"
#include "shard/wire.h"

namespace cameo::shard {

/// Monotone counters, merged on read across channels. The robustness
/// counters stay zero on a clean channel: fault counters are filled in by
/// FaultInjectingTransport (fault_transport.h) and the session counters are
/// merged in by ShardRuntime::transport_stats() from the session layer
/// (session.h) -- keeping them all in one struct lets benches and tests gate
/// on a single merged view.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;

  // ---- injected faults (FaultInjectingTransport) ----
  std::uint64_t faults_dropped = 0;     // silently discarded on send
  std::uint64_t faults_duplicated = 0;  // sent twice
  std::uint64_t faults_corrupted = 0;   // one byte flipped in flight
  std::uint64_t faults_delayed = 0;     // hit a delay spike
  std::uint64_t faults_reordered = 0;   // swapped with a later frame
  std::uint64_t partition_dropped = 0;  // discarded inside a partition window

  // ---- session layer (reliable delivery; session.h) ----
  std::uint64_t retransmits = 0;       // fast_retransmits + rto_retransmits
  std::uint64_t fast_retransmits = 0;  // holes re-sent on SACK evidence
  std::uint64_t rto_retransmits = 0;   // re-sends when the timer fired
  std::uint64_t out_of_order = 0;      // arrivals parked in the reorder ring
  std::uint64_t dup_drops = 0;         // duplicate seqs discarded at receive
  std::uint64_t corrupt_drops = 0;     // checksum-failed frames discarded
  std::uint64_t acks_sent = 0;         // standalone ack frames emitted
  std::uint64_t sent_unique = 0;       // distinct app frames offered for send
  std::uint64_t delivered = 0;         // distinct app frames released, in order

  // ---- overload protection (ShardRuntime admission control) ----
  std::uint64_t shed_messages = 0;  // messages refused by admission control

  /// Sent but not yet received -- the conservation tests pin
  /// sent == received + in_flight at every quiescent point (on clean
  /// channels; under injected faults dropped frames never arrive and the
  /// session-layer `sent_unique == delivered` invariant takes over).
  std::uint64_t in_flight() const { return frames_sent - frames_received; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sizes the channel matrix. Must be called once before any Send/Receive.
  virtual void Start(int num_shards) = 0;

  /// Ships `frame` on the (from, to) channel. Returns the modeled delivery
  /// time (>= now, non-decreasing per channel); the frame must not be read
  /// before then. Takes ownership of the frame's buffer.
  virtual SimTime Send(int from, int to, SimTime now, WireFrame frame) = 0;

  /// Pops the next frame addressed to shard `to` whose delivery time has
  /// passed (deliver_at <= now), in per-channel send order, reporting the
  /// source shard in `from` (from the channel itself, so it is trustworthy
  /// even when the frame bytes are corrupted). Returns false when nothing is
  /// due. The caller owns `out` and must ReleaseFrame it.
  virtual bool Receive(int to, SimTime now, WireFrame& out, int& from) = 0;

  /// Convenience overload for callers that do not need the source shard.
  bool Receive(int to, SimTime now, WireFrame& out) {
    int from;
    return Receive(to, now, out, from);
  }

  virtual TransportStats stats() const = 0;
  virtual std::string name() const = 0;
};

}  // namespace cameo::shard
