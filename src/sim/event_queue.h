// Discrete-event engine: a time-ordered queue of closures. Events at equal
// timestamps run in scheduling order (stable sequence numbers), which makes
// whole-cluster simulations deterministic for a fixed seed.
//
// Implementation: small (time, seq, slot) keys over a slot vector of InlineFn
// actions. A key whose delay (time - now) is one of the fixed lane delays --
// 0, or the cluster's intra-shard hop -- goes to that delay's FIFO lane; any
// other key goes to a binary min-heap. Each lane is sorted by construction
// (now never decreases and seq only grows), so RunNext takes the least
// (time, seq) of the heap top and the lane heads and runs events in exactly
// the order one heap would. Only the 24-byte keys move; an action stays put
// in its slot from Schedule until RunNext moves it out. Freed slots are
// reused last-in first-out, so steady state, Schedule/RunNext perform no
// heap allocation: the key heap, lanes, slot vector and free list retain
// their capacity, and the common closure sizes fit the inline buffer.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/inline_fn.h"
#include "common/ring_queue.h"
#include "common/time.h"

namespace cameo {

class EventQueue {
 public:
  /// Inline closure budget: sized for the simulator's largest event, the
  /// intra-shard delivery closure carrying one Message by value (see
  /// Cluster::StepHooks::Deliver). Larger closures still work via InlineFn's
  /// boxed fallback -- they just pay the allocation the common path avoids.
  static constexpr std::size_t kActionCapacity = 256;
  using Action = InlineFn<kActionCapacity>;

  /// Delays that skip the heap, one FIFO lane each: 0 (the cluster's wake-up
  /// sweep) and the cluster's intra-shard hop (deliveries and reply acks,
  /// sim/cluster.cpp's kNetworkDelay).
  static constexpr std::array<Duration, 2> kLaneDelays = {0, kMillisecond};

  /// Schedules `fn` at absolute time `t` (>= now).
  void Schedule(SimTime t, Action fn);

  bool empty() const { return Earliest() == kNone; }
  SimTime now() const { return now_; }
  SimTime NextTime() const {
    const std::size_t src = Earliest();
    CAMEO_EXPECTS(src != kNone);
    return Head(src).time;
  }

  /// Pops and runs the earliest event; advances now().
  void RunNext();

  /// Runs until the queue drains or the next event is past `until`.
  void RunUntil(SimTime until);

  std::uint64_t executed() const { return executed_; }
  /// Events that took the heap rather than a fixed-delay lane.
  std::uint64_t heap_pushes() const { return heap_pushes_; }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };
  static constexpr std::size_t kLanes = kLaneDelays.size();
  /// Earliest() results past the lanes: the heap top, or nothing pending.
  static constexpr std::size_t kHeap = kLanes;
  static constexpr std::size_t kNone = kLanes + 1;

  /// Where the least pending (time, seq) key sits: a lane index, kHeap or
  /// kNone.
  std::size_t Earliest() const;
  const Key& Head(std::size_t src) const {
    return src == kHeap ? heap_.front() : lanes_[src].front();
  }
  /// Pops the head key of `src` and runs its action.
  void RunFrom(std::size_t src);

  std::vector<Key> heap_;  // min-heap on (time, seq)
  std::array<RingQueue<Key>, kLanes> lanes_;  // lane i: time = now + delay i
  std::vector<Action> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t heap_pushes_ = 0;
};

}  // namespace cameo
