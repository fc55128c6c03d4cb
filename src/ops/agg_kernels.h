// Columnar aggregation kernels for windowed operators.
//
// The seed WindowAggOp folded row-at-a-time: one `windows_[b]` std::map
// probe plus a virtual-free but branchy accumulator update per (row, window)
// pair. With PR 5's batch-drain contract feeding operators ever larger
// EventBatches, that per-row probe dominates. This layer splits the work the
// way opflow's `agg_exec` does:
//
//  1. **Window assignment** (`WindowPlan::Build`): one pass over the batch's
//     time column groups row *indices* by their first window end
//     (ceil(t/S)*S). A batch typically spans one or two window buckets, so
//     the window lookup and the late-window check run once per bucket
//     instead of once per row.
//  2. **Columnar fold** (`AggKernel::FoldRows`): the aggregation consumes a
//     whole bucket of rows against one accumulator in a tight loop -- the
//     kind switch happens once per bucket, the loop body is branch-light and
//     SIMD-friendly. `FoldOne` is the row-wise reference path (used by the
//     session-window assigner, the equivalence property tests, and the
//     row-vs-columnar bench); both paths apply updates in batch row order,
//     so their results are bit-identical, not just approximately equal.
//  3. **Emission** (`AggKernel::Emit`): materializes the window's result
//     tuples. An empty accumulator emits *no* tuples (a progress-only
//     batch), never a fabricated value such as max() == 0.
//
// Kernel roster: Sum, Count, Max (the seed kinds, optionally grouped per
// key), TopK (top `AggParams::top_k` keys by per-key sum), Percentile (a
// bounded-memory LogHistogram sketch, `AggParams::quantile`), and OHLC
// (open/high/low/close by logical time). All are reachable through the
// QueryDef fluent builder (api/query_def.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "dataflow/event_batch.h"
#include "state/slate_store.h"

namespace cameo {

enum class AggKind { kSum, kCount, kMax, kTopK, kPercentile, kOhlc };

/// Parameters of the parameterized kernels; defaulted so the classic kinds
/// need not mention them.
struct AggParams {
  int top_k = 3;           // kTopK: number of keys emitted per window
  double quantile = 95.0;  // kPercentile: q in [0, 100]
};

/// kPercentile sketch shape: LogHistogram buckets from kSketchMin growing by
/// kSketchBase (relative error ~kSketchBase - 1), kSketchBuckets of them.
inline constexpr double kSketchMin = 1e-6;
inline constexpr double kSketchBase = 1.05;
inline constexpr std::size_t kSketchBuckets = 512;

/// One pass of window assignment over a batch's time column: rows grouped by
/// their *first* window end, ceil(t/S)*S (inclusive-right window model, see
/// ops/window_agg.h). Rows within a bucket keep batch order, so folding a
/// bucket row-by-row reproduces the row-wise fold exactly. A bucket also
/// carries the number of consecutive window ends its rows belong to
/// (constant W/S when slide divides size; otherwise rows with differing
/// window membership land in distinct buckets).
///
/// The plan owns its scratch vectors; reuse one instance per operator and
/// Build() is allocation-free once warm.
class WindowPlan {
 public:
  struct Bucket {
    LogicalTime first_end = 0;  // earliest window end the rows belong to
    std::uint32_t windows = 0;  // rows fold into first_end + j*S, j < windows
    std::uint32_t begin = 0;    // span into rows()
    std::uint32_t count = 0;
  };

  void Build(const std::vector<LogicalTime>& times, LogicalTime size,
             LogicalTime slide);

  const std::vector<Bucket>& buckets() const { return buckets_; }
  /// True when every bucket's rows are one contiguous batch span (the usual
  /// case: batches arrive roughly time-sorted, so assignment never returns to
  /// an earlier bucket). Buckets then address batch rows
  /// [begin, begin + count) directly and the scatter pass is skipped --
  /// callers should fold with the contiguous FoldRows overload.
  bool contiguous() const { return contiguous_; }
  /// Row indices grouped by bucket (only populated when !contiguous());
  /// bucket b owns rows()[b.begin .. b.begin + b.count).
  const std::uint32_t* rows() const { return rows_.data(); }

 private:
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> bucket_of_;  // scratch: row -> bucket index
  bool contiguous_ = true;
};

/// Per-window accumulator state shared by every kernel kind. Cheap kinds use
/// the scalar fields; per-key kinds the slate store (state/slate_store.h);
/// kPercentile lazily attaches a LogHistogram sketch.
struct AggWindowState {
  std::int64_t count = 0;
  double sum = 0;
  double max = 0;
  bool max_valid = false;
  // OHLC: open/close chosen by logical time (ties: fold order), high/low by
  // value.
  double open = 0, high = 0, low = 0, close = 0;
  LogicalTime open_time = kTimeMax;
  LogicalTime close_time = kTimeMin;
  SimTime last_event = kTimeMin;
  SlateStore<double> per_key;
  std::unique_ptr<LogHistogram> sketch;

  /// Empties the state for reuse by another window. The per-key store keeps
  /// its capacity, so a refill to a similar size pays no allocation and no
  /// regrowth.
  void Reset() {
    count = 0;
    sum = max = 0;
    max_valid = false;
    open = high = low = close = 0;
    open_time = kTimeMax;
    close_time = kTimeMin;
    last_event = kTimeMin;
    per_key.Clear();
    sketch.reset();
  }
};

/// A configured aggregation kernel: stateless between calls, so one instance
/// per operator serves every window.
class AggKernel {
 public:
  AggKernel(AggKind kind, bool per_key, AggParams params = {});

  AggKind kind() const { return kind_; }
  bool per_key() const { return per_key_; }
  const AggParams& params() const { return params_; }

  /// Columnar fold: all `n` rows (indices into the batch's columns) belong
  /// to the window. Updates run in row order -- bit-identical to calling
  /// FoldOne per row.
  void FoldRows(AggWindowState& w, const EventBatch& batch,
                const std::uint32_t* rows, std::uint32_t n) const;

  /// Contiguous-span fold: batch rows [begin, begin + n) belong to the
  /// window (the WindowPlan::contiguous() fast path). No index gather -- the
  /// loops stride the columns directly, which is where the columnar layer's
  /// headline speedup comes from on time-sorted batches.
  void FoldRows(AggWindowState& w, const EventBatch& batch, std::uint32_t begin,
                std::uint32_t n) const;

  /// Row-wise reference fold (session assignment, property tests, bench).
  void FoldOne(AggWindowState& w, std::int64_t key, double value,
               LogicalTime time) const;

  /// Folds `n` synthetic tuples (unit value, key 0, logical time `time`) in
  /// O(1) -- O(log n) work, preserving the seed's synthetic semantics.
  void FoldSynthetic(AggWindowState& w, std::int64_t n, LogicalTime time) const;

  /// Merges `src` into `dst` (session-window coalescing).
  void Merge(AggWindowState& dst, const AggWindowState& src) const;

  /// Appends the window's result tuples to `out`, stamped `stamp`. An empty
  /// accumulator appends nothing: the caller emits a progress-only batch
  /// rather than a fabricated value (late-data / empty-window policy).
  void Emit(const AggWindowState& w, LogicalTime stamp, EventBatch& out) const;

 private:
  /// Shared fold body: `ix(i)` maps loop position to batch row (identity for
  /// the contiguous overload, a gather for the scattered one). Defined in the
  /// .cpp; both instantiations live there.
  template <typename RowIx>
  void FoldSpan(AggWindowState& w, const EventBatch& batch, RowIx ix,
                std::uint32_t n) const;

  LogHistogram& Sketch(AggWindowState& w) const;

  AggKind kind_;
  bool per_key_;
  AggParams params_;
  // Emission scratch (per-key sort buffer); mutable because Emit is
  // logically const. Operators are single-threaded actors, so no locking.
  mutable std::vector<std::pair<std::int64_t, double>> emit_scratch_;
};

}  // namespace cameo
