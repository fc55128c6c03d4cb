// Per-key event-time timers for keyed operators: TTL expiry and per-key
// window close without scanning every live slate on each watermark advance.
//
// A calendar queue over *logical* (event) time, the state-layer sibling of
// the simulator's EventQueue (sim/event_queue.h): a ring of buckets, each
// covering a power-of-two span of logical ticks, plus an overflow min-heap
// for timers beyond the wheel horizon. Scheduling is a push_back into the
// target bucket; firing happens in batch when the operator's watermark
// advances -- Advance() gathers every due timer, sorts the due set once by
// (time, seq), and fires in that exact order. Sorting only the due set keeps
// the cost proportional to what actually fires, and the (time, seq) total
// order makes fixed-seed replays bit-identical regardless of bucket layout.
//
// Timers are four-word PODs (deadline, seq, key, tag) -- no closures. The
// operator interprets (key, tag) when a timer fires: close window `time` for
// `key`, or check `key`'s TTL. Cancellation is deliberately absent; TTL
// users re-arm lazily instead (on fire, compare the slate's real deadline
// and re-schedule if activity pushed it out), which keeps Schedule O(1) and
// the wheel free of tombstone bookkeeping.
//
// Steady state, Schedule/Advance perform no heap allocation: bucket vectors,
// the due-set scratch, and the overflow heap all retain capacity.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace cameo {

class TimerWheel {
 public:
  struct Timer {
    LogicalTime time = 0;   // deadline: fires once watermark >= time
    std::uint64_t seq = 0;  // schedule order; ties on `time` fire in seq order
    std::int64_t key = 0;
    std::uint32_t tag = 0;  // operator-defined discriminator (close vs TTL)
  };

  /// `width_shift`: log2 of logical ticks per bucket. The wheel spans
  /// kBuckets << width_shift ticks past the watermark; later deadlines sit
  /// in the overflow heap until the wheel advances under them.
  explicit TimerWheel(int width_shift = kDefaultShift)
      : width_shift_(width_shift) {
    CAMEO_EXPECTS(width_shift >= 0 && width_shift < 32);
  }

  /// The narrowest width, never below the default 64-tick buckets, whose
  /// horizon covers deadlines up to `span` ticks past the watermark. Firing
  /// order does not depend on the width; only the overflow traffic does.
  static int WidthShiftCovering(LogicalTime span) {
    int shift = kDefaultShift;
    while (shift < 31 && static_cast<LogicalTime>(kBuckets << shift) < span) {
      ++shift;
    }
    return shift;
  }

  /// Arms a timer at deadline `t`. Deadlines at or before the last Advance()
  /// watermark would never fire; they are rejected.
  void Schedule(LogicalTime t, std::int64_t key, std::uint32_t tag = 0) {
    CAMEO_EXPECTS(t >= 0 && t > advanced_);
    Timer timer{t, seq_++, key, tag};
    const std::uint64_t abs = AbsOf(t);
    if (abs >= base_abs_ + kBuckets) {
      overflow_.push_back(timer);
      std::push_heap(overflow_.begin(), overflow_.end(), HeapAfter);
    } else {
      wheel_[RingOf(abs)].push_back(timer);
    }
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Timers parked past the horizon, in the overflow heap.
  std::size_t overflow_size() const { return overflow_.size(); }
  /// The last watermark passed to Advance().
  LogicalTime advanced() const { return advanced_; }

  /// Fires every timer with deadline <= `watermark`, in (time, seq) order,
  /// as `fire(time, key, tag)`. `fire` may Schedule new timers; they must be
  /// past the watermark (the lazy re-arm pattern) and join a later round.
  template <typename Fn>
  void Advance(LogicalTime watermark, Fn&& fire) {
    if (watermark <= advanced_) return;
    GatherDue(watermark);
    advanced_ = watermark;
    // due_ is detached from the wheel before any callback runs, so re-arms
    // from inside `fire` land in the (now re-based) wheel, never in due_.
    for (const Timer& t : due_) fire(t.time, t.key, t.tag);
    due_.clear();
  }

 private:
  static constexpr int kDefaultShift = 6;  // 64-tick buckets
  static constexpr int kBucketBits = 8;    // 256 ring slots
  static constexpr std::uint64_t kBuckets = 1ull << kBucketBits;

  static bool HeapAfter(const Timer& a, const Timer& b) {
    // std::push_heap builds a max-heap; invert for min-(time, seq) at top.
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  static bool DueBefore(const Timer& a, const Timer& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint64_t AbsOf(LogicalTime t) const {
    return static_cast<std::uint64_t>(t) >> width_shift_;
  }
  static std::size_t RingOf(std::uint64_t abs) {
    return static_cast<std::size_t>(abs & (kBuckets - 1));
  }

  void GatherDue(LogicalTime watermark) {
    const std::uint64_t target = AbsOf(watermark);
    // Sweep wheel buckets [base, target]; the target bucket may straddle the
    // watermark, so it keeps its not-yet-due tail (stable compaction).
    for (std::uint64_t abs = base_abs_; abs <= target && WheelCount() > 0;
         ++abs) {
      std::vector<Timer>& bucket = wheel_[RingOf(abs)];
      if (bucket.empty()) continue;
      if (abs < target) {
        due_.insert(due_.end(), bucket.begin(), bucket.end());
        size_ -= bucket.size();
        bucket.clear();
        continue;
      }
      std::size_t keep = 0;
      for (Timer& t : bucket) {
        if (t.time <= watermark) {
          due_.push_back(t);
          --size_;
        } else {
          bucket[keep++] = t;
        }
      }
      bucket.resize(keep);
    }
    // Re-base at the watermark's bucket and pull newly in-horizon overflow
    // timers into the wheel (due ones go straight to the due set).
    base_abs_ = target;
    while (!overflow_.empty()) {
      const Timer& top = overflow_.front();
      if (top.time <= watermark) {
        due_.push_back(top);
        --size_;
      } else if (AbsOf(top.time) < base_abs_ + kBuckets) {
        wheel_[RingOf(AbsOf(top.time))].push_back(top);
      } else {
        break;  // min-heap: everything else is even further out
      }
      std::pop_heap(overflow_.begin(), overflow_.end(), HeapAfter);
      overflow_.pop_back();
    }
    std::sort(due_.begin(), due_.end(), DueBefore);
  }

  std::size_t WheelCount() const { return size_ - overflow_.size(); }

  int width_shift_;
  std::array<std::vector<Timer>, kBuckets> wheel_;
  std::vector<Timer> overflow_;  // min-heap on (time, seq)
  std::vector<Timer> due_;       // Advance scratch; capacity retained
  std::uint64_t base_abs_ = 0;
  std::size_t size_ = 0;
  std::uint64_t seq_ = 0;
  LogicalTime advanced_ = -1;
};

}  // namespace cameo
