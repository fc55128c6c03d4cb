#include "ops/agg_kernels.h"

#include "common/check.h"

namespace cameo {

void WindowPlan::Build(const std::vector<LogicalTime>& times, LogicalTime size,
                       LogicalTime slide) {
  CAMEO_EXPECTS(slide > 0 && size >= slide);
  const std::size_t n = times.size();
  buckets_.clear();
  bucket_of_.clear();
  rows_.clear();
  contiguous_ = true;

  // When slide divides size, every row in the same first-end range carries
  // the same window count, so neighbouring rows resolve their bucket with
  // two compares instead of two 64-bit divisions.
  const bool uniform = size % slide == 0;

  // Pass 1: per row, compute (first window end, window count) and find its
  // bucket. Batches cluster in time, so consecutive rows almost always share
  // a timestamp or sit in the same (or the next) window range; the division
  // fallback and the linear bucket scan (one entry per distinct (b0, nw)
  // pair) only run on out-of-order jumps. Row -> bucket bookkeeping is lazy:
  // while assignment stays contiguous the runs in `buckets_` are the whole
  // story, and `bucket_of_` is only materialized when a bucket is re-entered
  // (the scatter pass then needs it).
  std::uint32_t last = 0;
  LogicalTime t_prev = kTimeMin;
  LogicalTime b0 = 0;
  std::uint32_t nw = 0;
  bool tracking = false;  // bucket_of_ materialized (contiguity broke)
  for (std::size_t r = 0; r < n; ++r) {
    const LogicalTime t = times[r];
    // Hot path: the row lands in the previous row's bucket. With uniform
    // windows that is one well-predicted range check (taken for every row of
    // a slide's worth of stream); no division, no bucket search.
    if (r > 0 && (uniform ? (t > b0 - slide && t <= b0) : t == t_prev)) {
      ++buckets_[last].count;
      if (tracking) bucket_of_.push_back(last);
      continue;
    }
    t_prev = t;
    if (uniform && r > 0 && t > b0 && t <= b0 + slide) {
      b0 += slide;  // the monotonic-stream transition: the next range over
    } else {
      b0 = ((t + slide - 1) / slide) * slide;
      // Window ends are b0, b0+S, ... < t + size.
      nw = static_cast<std::uint32_t>((t + size - 1 - b0) / slide + 1);
    }
    if (last >= buckets_.size() || buckets_[last].first_end != b0 ||
        buckets_[last].windows != nw) {
      last = static_cast<std::uint32_t>(buckets_.size());
      for (std::uint32_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i].first_end == b0 && buckets_[i].windows == nw) {
          last = i;
          // Re-entering an earlier bucket: its rows are no longer one
          // contiguous batch span. Materialize the row -> bucket map for
          // the contiguous prefix (its runs expand in bucket order).
          if (!tracking) {
            tracking = true;
            contiguous_ = false;
            bucket_of_.reserve(n);
            for (std::uint32_t bi = 0; bi < buckets_.size(); ++bi) {
              bucket_of_.insert(bucket_of_.end(), buckets_[bi].count, bi);
            }
          }
          break;
        }
      }
      if (last == buckets_.size()) buckets_.push_back({b0, nw, 0, 0});
    }
    ++buckets_[last].count;
    if (tracking) bucket_of_.push_back(last);
  }

  // Pass 2: prefix-sum spans. When every bucket's rows form one contiguous
  // run (the typical time-sorted batch), `begin` already addresses the batch
  // directly and the scatter is skipped. Otherwise scatter row indices in
  // batch order so a bucket's rows fold in exactly the order the row-wise
  // path would.
  std::uint32_t offset = 0;
  for (Bucket& b : buckets_) {
    b.begin = offset;
    offset += b.count;
  }
  if (contiguous_) return;
  rows_.resize(n);
  for (Bucket& b : buckets_) b.count = 0;  // reused as the scatter cursor
  for (std::size_t r = 0; r < n; ++r) {
    Bucket& b = buckets_[bucket_of_[r]];
    rows_[b.begin + b.count++] = static_cast<std::uint32_t>(r);
  }
}

AggKernel::AggKernel(AggKind kind, bool per_key, AggParams params)
    : kind_(kind), per_key_(per_key), params_(std::move(params)) {
  // TopK defines its own (per-key) accumulation and emission; Percentile and
  // OHLC emit fixed window-level shapes. The per_key grouping flag applies
  // to the scalar kinds only.
  if (kind_ == AggKind::kTopK || kind_ == AggKind::kPercentile ||
      kind_ == AggKind::kOhlc) {
    CAMEO_EXPECTS(!per_key_);
  }
  if (kind_ == AggKind::kTopK) CAMEO_EXPECTS(params_.top_k >= 1);
  if (kind_ == AggKind::kPercentile) {
    CAMEO_EXPECTS(params_.quantile >= 0 && params_.quantile <= 100);
  }
}

LogHistogram& AggKernel::Sketch(AggWindowState& w) const {
  if (w.sketch == nullptr) {
    w.sketch = std::make_unique<LogHistogram>(
        kSketchMin, kSketchBase, kSketchBuckets);
  }
  return *w.sketch;
}

template <typename RowIx>
void AggKernel::FoldSpan(AggWindowState& w, const EventBatch& batch, RowIx ix,
                         std::uint32_t n) const {
  const std::int64_t* keys = batch.keys.data();
  const double* values = batch.values.data();
  const LogicalTime* times = batch.times.data();
  w.count += n;

  // The kind dispatch happens once per bucket; every loop below touches only
  // the columns its aggregation needs, in batch row order (bit-identical to
  // the row-wise reference path).
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kCount:
      for (std::uint32_t i = 0; i < n; ++i) w.sum += values[ix(i)];
      break;
    case AggKind::kMax:
      for (std::uint32_t i = 0; i < n; ++i) {
        const double v = values[ix(i)];
        if (!w.max_valid || v > w.max) {
          w.max = v;
          w.max_valid = true;
        }
      }
      break;
    case AggKind::kTopK:
      for (std::uint32_t i = 0; i < n; ++i) {
        w.per_key.Probe(keys[ix(i)]) += values[ix(i)];
      }
      break;
    case AggKind::kPercentile: {
      LogHistogram& sketch = Sketch(w);
      for (std::uint32_t i = 0; i < n; ++i) sketch.Add(values[ix(i)]);
      break;
    }
    case AggKind::kOhlc:
      for (std::uint32_t i = 0; i < n; ++i) {
        const double v = values[ix(i)];
        const LogicalTime t = times[ix(i)];
        if (w.open_time == kTimeMax || t < w.open_time) {
          w.open = v;
          w.open_time = t;
        }
        if (t >= w.close_time) {
          w.close = v;
          w.close_time = t;
        }
        if (!w.max_valid) {
          w.high = w.low = v;
          w.max_valid = true;
        } else {
          if (v > w.high) w.high = v;
          if (v < w.low) w.low = v;
        }
      }
      break;
  }

  if (per_key_) {
    switch (kind_) {
      case AggKind::kSum:
        for (std::uint32_t i = 0; i < n; ++i) {
          w.per_key.Probe(keys[ix(i)]) += values[ix(i)];
        }
        break;
      case AggKind::kCount:
        for (std::uint32_t i = 0; i < n; ++i) {
          w.per_key.Probe(keys[ix(i)]) += 1;
        }
        break;
      case AggKind::kMax:
        for (std::uint32_t i = 0; i < n; ++i) {
          const double v = values[ix(i)];
          double& acc = w.per_key.Probe(keys[ix(i)], v);
          if (v > acc) acc = v;
        }
        break;
      default:
        break;  // unreachable: per_key_ rejected for the other kinds
    }
  }
}

void AggKernel::FoldRows(AggWindowState& w, const EventBatch& batch,
                         const std::uint32_t* rows, std::uint32_t n) const {
  FoldSpan(w, batch, [rows](std::uint32_t i) { return rows[i]; }, n);
}

void AggKernel::FoldRows(AggWindowState& w, const EventBatch& batch,
                         std::uint32_t begin, std::uint32_t n) const {
  FoldSpan(w, batch, [begin](std::uint32_t i) { return begin + i; }, n);
}

void AggKernel::FoldOne(AggWindowState& w, std::int64_t key, double value,
                        LogicalTime time) const {
  // Single-row versions of the FoldRows loops; the update order matches
  // FoldRows exactly, so a per-row fold is bit-identical to the columnar one
  // (the equivalence property tests lean on this).
  w.count += 1;
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kCount:
      w.sum += value;
      break;
    case AggKind::kMax:
      if (!w.max_valid || value > w.max) {
        w.max = value;
        w.max_valid = true;
      }
      break;
    case AggKind::kTopK:
      w.per_key.Probe(key) += value;
      break;
    case AggKind::kPercentile:
      Sketch(w).Add(value);
      break;
    case AggKind::kOhlc:
      if (w.open_time == kTimeMax || time < w.open_time) {
        w.open = value;
        w.open_time = time;
      }
      if (time >= w.close_time) {
        w.close = value;
        w.close_time = time;
      }
      if (!w.max_valid) {
        w.high = w.low = value;
        w.max_valid = true;
      } else {
        if (value > w.high) w.high = value;
        if (value < w.low) w.low = value;
      }
      break;
  }
  if (per_key_) {
    switch (kind_) {
      case AggKind::kSum:
        w.per_key.Probe(key) += value;
        break;
      case AggKind::kCount:
        w.per_key.Probe(key) += 1;
        break;
      case AggKind::kMax: {
        double& acc = w.per_key.Probe(key, value);
        if (value > acc) acc = value;
        break;
      }
      default:
        break;
    }
  }
}

void AggKernel::FoldSynthetic(AggWindowState& w, std::int64_t n,
                              LogicalTime time) const {
  if (n <= 0) return;
  // Synthetic tuples all carry unit value and key 0; fold them in O(1) so a
  // batch of 80K tuples (Fig. 13 scales) costs the same as a batch of 1.
  w.count += n;
  const auto dn = static_cast<double>(n);
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kCount:
      w.sum += dn;
      break;
    case AggKind::kMax:
      if (!w.max_valid || 1.0 > w.max) {
        w.max = 1.0;
        w.max_valid = true;
      }
      break;
    case AggKind::kTopK:
      w.per_key.Probe(0) += dn;
      break;
    case AggKind::kPercentile:
      Sketch(w).AddN(1.0, static_cast<std::uint64_t>(n));
      break;
    case AggKind::kOhlc:
      if (w.open_time == kTimeMax || time < w.open_time) {
        w.open = 1.0;
        w.open_time = time;
      }
      if (time >= w.close_time) {
        w.close = 1.0;
        w.close_time = time;
      }
      if (!w.max_valid) {
        w.high = w.low = 1.0;
        w.max_valid = true;
      }
      break;
  }
  if (per_key_) {
    switch (kind_) {
      case AggKind::kSum:
      case AggKind::kCount:
        // Sum and Count of unit-valued tuples both add n.
        w.per_key.Probe(0) += dn;
        break;
      case AggKind::kMax: {
        double& acc = w.per_key.Probe(0, 1.0);
        if (1.0 > acc) acc = 1.0;
        break;
      }
      default:
        break;
    }
  }
}

void AggKernel::Merge(AggWindowState& dst, const AggWindowState& src) const {
  dst.count += src.count;
  dst.sum += src.sum;
  if (src.max_valid) {
    if (kind_ == AggKind::kOhlc) {
      if (!dst.max_valid) {
        dst.high = src.high;
        dst.low = src.low;
        dst.max_valid = true;
      } else {
        if (src.high > dst.high) dst.high = src.high;
        if (src.low < dst.low) dst.low = src.low;
      }
    } else if (!dst.max_valid || src.max > dst.max) {
      dst.max = src.max;
      dst.max_valid = true;
    }
  }
  if (src.open_time < dst.open_time) {
    dst.open = src.open;
    dst.open_time = src.open_time;
  }
  if (src.close_time > dst.close_time) {
    dst.close = src.close;
    dst.close_time = src.close_time;
  }
  if (src.last_event > dst.last_event) dst.last_event = src.last_event;
  if (!src.per_key.empty()) {
    emit_scratch_.clear();
    src.per_key.AppendSorted(emit_scratch_);
    for (const auto& [key, value] : emit_scratch_) {
      if (kind_ == AggKind::kMax) {
        double& acc = dst.per_key.Probe(key, value);
        if (value > acc) acc = value;
      } else {
        dst.per_key.Probe(key) += value;
      }
    }
    emit_scratch_.clear();
  }
  if (src.sketch != nullptr) Sketch(dst).Merge(*src.sketch);
}

void AggKernel::Emit(const AggWindowState& w, LogicalTime stamp,
                     EventBatch& out) const {
  // Empty-window policy: a window that observed no data emits *no* tuples
  // (the caller still sends the batch so downstream progress advances). The
  // seed fabricated max() == 0 here and fell back to the global accumulator
  // when a per-key map was empty.
  if (w.count <= 0) return;
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kCount:
    case AggKind::kMax:
      if (per_key_) {
        if (w.per_key.empty()) return;
        emit_scratch_.clear();
        w.per_key.AppendSorted(emit_scratch_);
        for (const auto& [key, value] : emit_scratch_) {
          out.Append(key, value, stamp);
        }
        emit_scratch_.clear();
        return;
      }
      if (kind_ == AggKind::kSum) {
        out.Append(0, w.sum, stamp);
      } else if (kind_ == AggKind::kCount) {
        out.Append(0, static_cast<double>(w.count), stamp);
      } else {
        if (!w.max_valid) return;
        out.Append(0, w.max, stamp);
      }
      return;
    case AggKind::kTopK: {
      if (w.per_key.empty()) return;
      emit_scratch_.clear();
      w.per_key.AppendSorted(emit_scratch_);
      const auto k = std::min<std::size_t>(
          emit_scratch_.size(), static_cast<std::size_t>(params_.top_k));
      // Highest value first; AppendSorted's key order breaks value ties
      // deterministically via stable_sort.
      std::stable_sort(emit_scratch_.begin(), emit_scratch_.end(),
                       [](const auto& a, const auto& b) {
                         return a.second > b.second;
                       });
      for (std::size_t i = 0; i < k; ++i) {
        out.Append(emit_scratch_[i].first, emit_scratch_[i].second, stamp);
      }
      emit_scratch_.clear();
      return;
    }
    case AggKind::kPercentile:
      if (w.sketch == nullptr || w.sketch->count() == 0) return;
      out.Append(0, w.sketch->Percentile(params_.quantile), stamp);
      return;
    case AggKind::kOhlc:
      if (!w.max_valid) return;
      // Four tuples keyed 0..3: open, high, low, close.
      out.Append(0, w.open, stamp);
      out.Append(1, w.high, stamp);
      out.Append(2, w.low, stamp);
      out.Append(3, w.close, stamp);
      return;
  }
}

}  // namespace cameo
