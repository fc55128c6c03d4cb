// Per-user counter: the first pure-slate operator. Counts rows per key per
// window over a SlateStore of compact per-key slates, with per-key window
// close and TTL expiry driven by TimerWheel timers -- no global scan of the
// (potentially million-key) store ever happens on the hot path.
//
// Semantics match WindowAggOp{kCount, per_key} exactly (same inclusive-right
// window model, late-data policy, sorted-by-key emission, synthetic-batch
// handling), which is what the bench's per-run equivalence check leans on.
// Both take the watermark, its channel credit and the late-data policy from
// WindowedOperator (dataflow/windowed_operator.h). What differs is the
// state layout: WindowAggOp keeps one accumulator map *per open window* and
// sweeps a window map on every watermark advance; this operator keeps one
// slate *per key* for the store's whole lifetime, so key identity (and its
// TTL lifecycle) survives across windows and the working set is
// proportional to live keys, not windows x keys.
//
// Slate layout: two resident (window end, count) cells cover the common
// window shapes (tumbling; sliding with size <= 2*slide). Rarer overlap
// degrees spill per-window into an overflow SlateStore, counted in
// overflow_folds() -- correctness never depends on the cell count.
//
// Hot-key mitigation hook #1 (per-key mini-batching): with mini_batch on,
// each batch bucket is first grouped key -> (rows, max time) in a scratch
// SlateStore, so a key occurring k times in a batch probes the big store
// once instead of k times. Under Zipf skew the hot key dominates every
// batch, making this the difference between O(rows) and O(distinct keys)
// big-store probes. Counts are integer-valued doubles, so grouped and
// ungrouped folds are bit-identical.
#pragma once

#include <map>
#include <vector>

#include "dataflow/windowed_operator.h"
#include "ops/agg_kernels.h"
#include "state/slate_store.h"
#include "state/timer_wheel.h"

namespace cameo {

/// One key's slate: two resident (window end, count) cells plus the TTL
/// bookkeeping -- 48 bytes, flat in the store's slabs.
struct CounterSlate {
  static constexpr LogicalTime kFree = kTimeMin;
  LogicalTime w0 = kFree;  // window ends owned by the resident cells
  LogicalTime w1 = kFree;
  double c0 = 0;
  double c1 = 0;
  /// Latest row time observed for the key; TTL measures idleness from here.
  LogicalTime last_seen = kTimeMin;
  /// Deadline of the armed TTL timer (lazy re-arm: at most one outstanding).
  LogicalTime ttl_armed = kTimeMin;
};

struct KeyedCounterOptions {
  /// Logical-time idle TTL: a key untouched for `ttl` ticks past its last
  /// row is expired (slate erased) once its open windows have closed.
  /// 0 disables expiry.
  LogicalTime ttl = 0;
  /// Group each batch bucket by key before probing the store (see above).
  bool mini_batch = true;
};

class KeyedCounterOp final : public WindowedOperator {
 public:
  KeyedCounterOp(std::string name, WindowSpec window, CostModel cost,
                 KeyedCounterOptions opts = {});

  void Invoke(const Message& m, InvokeContext& ctx) override;

  std::size_t live_keys() const { return store_.size(); }
  /// Books-close identity: inserted() == expired() + live_keys() holds
  /// whenever the watermark has passed every key's windows (tests assert it).
  std::int64_t inserted() const { return inserted_; }
  std::int64_t expired() const { return expired_; }
  /// Rows observed (real + synthetic), before any window fan-out. For
  /// tumbling windows the books close as rows_seen() == count_emitted() +
  /// late_dropped() once the watermark passes every open window.
  std::int64_t rows_seen() const { return rows_seen_; }
  /// Sum of all emitted per-key counts (integer-valued).
  double count_emitted() const { return count_emitted_; }
  /// Folds that missed both resident cells and went to the per-window
  /// overflow store (0 for tumbling and 2x-sliding windows).
  std::int64_t overflow_folds() const { return overflow_folds_; }
  std::size_t pending_timers() const { return wheel_.size(); }
  /// Timers beyond the wheel's horizon; 0 while the horizon, sized from
  /// window size + TTL, covers every close and TTL deadline.
  std::size_t overflow_timers() const { return wheel_.overflow_size(); }
  const SlateStore<CounterSlate>& store() const { return store_; }

 private:
  void FoldColumns(const Message& m);
  void FoldSynthetic(const Message& m);
  /// Folds `n` rows of `key` (latest row time `t`) into the window ending at
  /// `B`; claims a slate cell (arming the close timer) or spills.
  void FoldKey(std::int64_t key, double n, LogicalTime t, LogicalTime B);
  void ArmTtl(CounterSlate& slate, std::int64_t key);
  void AdvanceWatermark(InvokeContext& ctx);

  KeyedCounterOptions opts_;
  WindowPlan plan_;
  SlateStore<CounterSlate> store_;
  TimerWheel wheel_;

  /// Per-bucket key-grouping scratch (mini-batch pass). It keeps its slabs
  /// across buckets, so a bucket pays no regrowth rehashes; AppendSorted,
  /// not the table layout, fixes the fold order.
  struct MiniCell {
    double n = 0;
    LogicalTime t = kTimeMin;
  };
  SlateStore<MiniCell> batch_scratch_;
  std::vector<std::pair<std::int64_t, MiniCell>> scratch_pairs_;

  /// Overflow per-window counts for overlap degrees beyond the two slate
  /// cells; keyed by window end, swept with the same watermark.
  std::map<LogicalTime, SlateStore<double>> overflow_;

  /// (window end, key, count) triples collected while timers fire; sorted by
  /// (end, key) then emitted one batch per window end -- deterministic
  /// regardless of timer schedule order.
  struct PendingEmit {
    LogicalTime end;
    std::int64_t key;
    double count;
  };
  std::vector<PendingEmit> pending_emits_;
  std::vector<std::pair<std::int64_t, double>> overflow_pairs_;

  /// Highest progress stamped on an emitted batch; gates the trailing
  /// progress-only emission (no duplicate window-end stamps downstream).
  LogicalTime emitted_progress_ = kTimeMin;
  std::int64_t inserted_ = 0;
  std::int64_t expired_ = 0;
  std::int64_t overflow_folds_ = 0;
  std::int64_t rows_seen_ = 0;
  double count_emitted_ = 0;
};

}  // namespace cameo
