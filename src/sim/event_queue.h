// Discrete-event engine: a time-ordered queue of closures. Events at equal
// timestamps run in scheduling order (stable sequence numbers), which makes
// whole-cluster simulations deterministic for a fixed seed.
//
// Implementation: a binary min-heap of small (time, seq, slot) keys over a
// slot vector of InlineFn actions. Only the 24-byte keys sift; an action
// stays put in its slot from Schedule until RunNext moves it out. Freed
// slots are reused last-in first-out, so steady state, Schedule/RunNext
// perform no heap allocation: the key heap, slot vector and free list retain
// their capacity, and the common closure sizes fit the inline buffer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/inline_fn.h"
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

  /// Schedules `fn` at absolute time `t` (>= now).
  void Schedule(SimTime t, Action fn);

  bool empty() const { return heap_.empty(); }
  SimTime now() const { return now_; }
  SimTime NextTime() const {
    CAMEO_EXPECTS(!heap_.empty());
    return heap_.front().time;
  }

  /// Pops and runs the earliest event; advances now().
  void RunNext();

  /// Runs until the queue drains or the next event is past `until`.
  void RunUntil(SimTime until);

  std::uint64_t executed() const { return executed_; }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };

  std::vector<Key> heap_;  // min-heap on (time, seq)
  std::vector<Action> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace cameo
