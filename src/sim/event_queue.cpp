#include "sim/event_queue.h"

#include <algorithm>

namespace cameo {

namespace {

/// The total run order: (time, seq). Sequence numbers are unique, so two
/// distinct keys never tie.
template <typename Key>
bool Before(const Key& a, const Key& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Min-heap order on (time, seq): std heap algorithms build max-heaps, so
/// the later key compares "less" and the earliest sits on top.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    return Before(b, a);
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
  const Key key{t, seq_++, slot};
  // A lane only ever receives now + its delay, and now never decreases, so
  // appending keeps every lane sorted on (time, seq).
  const Duration delay = t - now_;
  for (std::size_t i = 0; i < kLanes; ++i) {
    if (delay == kLaneDelays[i]) {
      lanes_[i].push_back(key);
      return;
    }
  }
  ++heap_pushes_;
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::size_t EventQueue::Earliest() const {
  std::size_t best = heap_.empty() ? kNone : kHeap;
  for (std::size_t i = 0; i < kLanes; ++i) {
    if (lanes_[i].empty()) continue;
    if (best == kNone || Before(lanes_[i].front(), Head(best))) best = i;
  }
  return best;
}

void EventQueue::RunFrom(std::size_t src) {
  Key key;
  if (src == kHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    key = heap_.back();
    heap_.pop_back();
  } else {
    key = lanes_[src].front();
    lanes_[src].pop_front();
  }
  now_ = key.time;
  ++executed_;
  // Move the action out and free its slot before running it: the action may
  // schedule freely, including into the slot it just left.
  Action fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  fn();
}

void EventQueue::RunNext() {
  const std::size_t src = Earliest();
  CAMEO_EXPECTS(src != kNone);
  RunFrom(src);
}

void EventQueue::RunUntil(SimTime until) {
  for (std::size_t src = Earliest(); src != kNone && Head(src).time <= until;
       src = Earliest()) {
    RunFrom(src);
  }
  now_ = std::max(now_, until);
}

}  // namespace cameo
