// Allocation-free-in-steady-state FIFO: a flat vector consumed through a
// head index, cleared (capacity retained) whenever it drains. The natural
// replacement for std::deque in hot queues -- libstdc++'s deque allocates
// and frees a block every few dozen small elements even at constant depth,
// which is exactly the churn the zero-allocation dispatch path forbids.
//
// Consumed slots before the head stay as moved-from husks until the queue
// empties; memory is bounded by the queue's high-water mark per drain cycle.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace cameo {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  void push_back(T v) { items_.push_back(std::move(v)); }

  T& front() {
    CAMEO_EXPECTS(!empty());
    return items_[head_];
  }
  const T& front() const {
    CAMEO_EXPECTS(!empty());
    return items_[head_];
  }
  const T& back() const {
    CAMEO_EXPECTS(!empty());
    return items_.back();
  }

  void pop_front() {
    CAMEO_EXPECTS(!empty());
    ++head_;
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactMin && head_ * 2 >= items_.size()) {
      // A queue that never fully drains would otherwise grow its husk
      // prefix without bound. Sliding the live range down is O(live),
      // amortized O(1) per pop, and never allocates.
      std::move(begin(), end(), items_.begin());
      items_.resize(items_.size() - head_);
      head_ = 0;
    }
  }

  void clear() {
    items_.clear();  // capacity retained
    head_ = 0;
  }

  // Live range (skips consumed husks), for scans and erase_if.
  auto begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  auto end() { return items_.end(); }
  auto begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const { return items_.end(); }

  /// Removes every live element matching `pred` (compacting in place).
  template <typename Pred>
  void erase_if(Pred&& pred) {
    auto it = std::remove_if(begin(), end(), std::forward<Pred>(pred));
    items_.erase(it, items_.end());
    if (empty()) clear();
  }

 private:
  static constexpr std::size_t kCompactMin = 32;

  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace cameo
