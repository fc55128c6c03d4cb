// Windowed aggregation (paper §4.1 "windowed operators": partition the
// stream into sections by logical time and trigger only when all data from
// the section has been observed).
//
// Window model (inclusive-right, matching Li et al. [62] and TRANSFORM): an
// operator with WindowSpec{size W, slide S} produces one output per window
// *ending* at each multiple of S; the window ending at B covers logical
// times in (B - W, B]. A tuple with logical time p therefore belongs to
// every multiple-of-S window end in [p, p + W), the earliest being
// ceil(p / S) * S -- exactly what TRANSFORM computes. The batch whose
// progress lands on a boundary completes that window *and* contributes to
// it, so output is not delayed by an extra batch gap. Session windows
// (WindowSpec::Session(gap)) are data-driven instead: tuples within `gap`
// of each other coalesce, and the session ending at last + gap triggers
// when the watermark passes it.
//
// Triggering: every window whose end B is <= the watermark fires, in order.
// The watermark, its channel credit and the late-data policy live in
// WindowedOperator (dataflow/windowed_operator.h); one late_dropped() count
// is one dropped (tuple, window) assignment.
//
// Aggregation executes on the columnar kernel layer (ops/agg_kernels.h):
// one WindowPlan assignment pass per batch, then whole-bucket folds.
// Roster: Sum, Count, Max (optionally grouped per key), TopK, Percentile
// sketch, and OHLC. Synthetic (column-less) batches contribute their tuple
// count with unit values, so scheduler-focused workloads flow through the
// same operator.
#pragma once

#include <memory>
#include <vector>

#include "dataflow/windowed_operator.h"
#include "ops/agg_kernels.h"

namespace cameo {

class WindowAggOp : public WindowedOperator {
 public:
  WindowAggOp(std::string name, WindowSpec window, CostModel cost,
              AggKind kind, bool per_key = false, AggParams params = {});

  void Invoke(const Message& m, InvokeContext& ctx) override;

  std::size_t open_windows() const {
    return windows_.size() + sessions_.size();
  }
  const AggKernel& kernel() const { return kernel_; }

 protected:
  /// Per-key accumulator entries held by open windows: one per (key, window)
  /// pair.
  std::size_t per_key_entries() const;
  /// Rehashes of every window's per-key store over the operator's lifetime
  /// (stores are recycled across windows, so this stops moving once warm).
  std::uint64_t per_key_rehashes() const;
  /// Emits the result batch of the window ending at `window_end`.
  virtual void EmitWindow(LogicalTime window_end, const AggWindowState& w,
                          InvokeContext& ctx);

 private:
  struct OpenWindow {
    LogicalTime end;
    std::unique_ptr<AggWindowState> state;
  };

  struct Session {
    LogicalTime first = 0;  // earliest tuple time in the session
    LogicalTime last = 0;   // latest tuple time; closes at last + gap
    AggWindowState state;
  };

  void FoldColumns(const Message& m);
  void FoldSynthetic(const Message& m);
  /// Returns the (possibly freshly merged) open session covering logical
  /// time `t`, or nullptr when t's session has already closed -- in which
  /// case the `weight` tuples are counted as late-dropped.
  Session* SessionAt(LogicalTime t, std::int64_t weight);
  /// The open window ending at `end`, created (from a recycled state when
  /// one is spare) if absent.
  AggWindowState& WindowAt(LogicalTime end);

  AggKernel kernel_;
  WindowPlan plan_;
  /// Open windows sorted by end. A closed window's state is Reset() into
  /// spare_ and reused by a later window; its per-key store keeps its
  /// capacity, so steady-state windows open and close without touching the
  /// heap.
  std::vector<OpenWindow> windows_;
  std::vector<std::unique_ptr<AggWindowState>> spare_;
  /// Open session windows, sorted by `first`; pairwise more than `gap`
  /// apart (overlapping sessions merge on fold).
  std::vector<Session> sessions_;
};

}  // namespace cameo
