#include "sim/event_queue.h"

#include <algorithm>

namespace cameo {

namespace {

/// Min-heap order on (time, seq): std heap algorithms build max-heaps, so
/// the later key compares "less" and the earliest sits on top.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::Schedule(SimTime t, Action fn) {
  CAMEO_EXPECTS(t >= now_);
  CAMEO_EXPECTS(static_cast<bool>(fn));
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Key{t, seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::RunNext() {
  CAMEO_EXPECTS(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.time;
  ++executed_;
  // Move the action out and free its slot before running it: the action may
  // schedule freely, including into the slot it just left.
  Action fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  fn();
}

void EventQueue::RunUntil(SimTime until) {
  while (!empty() && NextTime() <= until) RunNext();
  now_ = std::max(now_, until);
}

}  // namespace cameo
