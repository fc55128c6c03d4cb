// Per-user counter: a per-key kCount WindowAggOp under its own name, so the
// benches and the keyed scenario find the counter stage by type and read its
// books. Each open window holds one per-key SlateStore, so a key's state goes
// when the last window holding it closes.
//
// One addition over WindowAggOp: when the watermark rises past a window end
// at which no window closed, the counter reports that end in a progress-only
// batch, so a key-hash shard that held no keys still moves the downstream
// merge's watermark.
#pragma once

#include "ops/window_agg.h"

namespace cameo {

struct KeyedCounterOptions {
  /// Upper bound, in logical ticks past a key's last row, on how long an
  /// idle key stays resident once the windows holding it have closed. This
  /// layout drops a key's state when its last window closes, so it meets
  /// every bound >= 0.
  LogicalTime ttl = 0;
};

class KeyedCounterOp final : public WindowAggOp {
 public:
  KeyedCounterOp(std::string name, WindowSpec window, CostModel cost,
                 KeyedCounterOptions opts = {});

  void Invoke(const Message& m, InvokeContext& ctx) override;

  /// Rows observed (real + synthetic), before any window fan-out. For
  /// tumbling windows the books close as rows_seen() == count_emitted() +
  /// late_dropped() once every open window has closed.
  std::int64_t rows_seen() const { return rows_seen_; }
  /// Sum of all emitted per-key counts (integer-valued).
  double count_emitted() const { return count_emitted_; }
  /// (key, window) entries held by open windows.
  std::size_t live_keys() const { return per_key_entries(); }

  /// store().rehashes(): lifetime rehashes of the per-window key stores.
  struct StoreStats {
    std::uint64_t n;
    std::uint64_t rehashes() const { return n; }
  };
  StoreStats store() const { return {per_key_rehashes()}; }

 private:
  void EmitWindow(LogicalTime window_end, const AggWindowState& w,
                  InvokeContext& ctx) override;

  /// Highest window end stamped on an emitted batch.
  LogicalTime emitted_progress_ = kTimeMin;
  std::int64_t rows_seen_ = 0;
  double count_emitted_ = 0;
};

}  // namespace cameo
