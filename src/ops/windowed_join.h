// Windowed equi-join of two streams (paper §6.1, IPQ4: "a windowed join of
// two event streams, followed by aggregation on a tumbling window").
//
// Tuples from the left and right inputs are bucketed into tumbling windows
// (inclusive-right: window ending at B covers (B - W, B]); when the
// watermark (minimum progress across all expected channels of both sides)
// reaches a window end, tuples with equal keys within that window are joined
// and one output tuple per match is emitted with value = left.value *
// right.value.
//
// Synthetic batches join by volume: each side accumulates a tuple count and
// the emitted match count is min(left, right) per window, preserving the
// downstream cost profile without materialized columns. A window holding
// both real and synthetic tuples emits a *mixed* batch: keyed matches in
// the columns plus the synthetic match count (EventBatch::size() is the
// sum) -- dropping either face would undercount the window.
//
// The watermark, its channel credit and the late-data policy live in
// WindowedOperator (dataflow/windowed_operator.h); the join waits on at least
// two channels, and one late_dropped() count is one dropped tuple.
#pragma once

#include <map>
#include <unordered_set>
#include <vector>

#include "dataflow/windowed_operator.h"

namespace cameo {

class WindowedJoinOp final : public WindowedOperator {
 public:
  WindowedJoinOp(std::string name, LogicalTime window_size, CostModel cost);

  /// Declares which upstream operators feed the left side; everything else
  /// is treated as the right side. Wired by the scenario builder.
  void SetLeftInputs(const std::vector<OperatorId>& left);

  void Invoke(const Message& m, InvokeContext& ctx) override;

  std::size_t open_windows() const { return windows_.size(); }

 private:
  struct Side {
    std::vector<std::int64_t> keys;
    std::vector<double> values;
    std::int64_t synthetic = 0;
  };
  struct WindowState {
    Side left, right;
    SimTime last_event = kTimeMin;
  };

  void EmitWindow(LogicalTime window_end, const WindowState& w,
                  InvokeContext& ctx);

  std::unordered_set<std::int64_t> left_inputs_;
  std::map<LogicalTime, WindowState> windows_;
};

}  // namespace cameo
