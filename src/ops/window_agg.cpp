#include "ops/window_agg.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {

WindowAggOp::WindowAggOp(std::string name, WindowSpec window, CostModel cost,
                         AggKind kind, bool per_key, AggParams params)
    : WindowedOperator(std::move(name), window, cost, /*min_channels=*/1),
      kernel_(kind, per_key, params) {
  CAMEO_EXPECTS(window.windowed());
  CAMEO_EXPECTS(window.size >= window.slide);
}

WindowAggOp::Session* WindowAggOp::SessionAt(LogicalTime t,
                                             std::int64_t weight) {
  const LogicalTime gap = window().gap;
  // A session containing t would close at >= t + gap; if the watermark has
  // already passed that, the session fired -- folding would resurrect it.
  if (t + gap <= watermark()) {
    late_dropped_ += weight;
    return nullptr;
  }
  // Sessions are disjoint and pairwise more than `gap` apart, so both their
  // `first` and `last` are strictly increasing: scan to the first session
  // that t can attach to (within gap of its end), then swallow every
  // following session t bridges into it.
  std::size_t lo = 0;
  while (lo < sessions_.size() && sessions_[lo].last + gap < t) ++lo;
  if (lo == sessions_.size() || t + gap < sessions_[lo].first) {
    Session s;
    s.first = s.last = t;
    return &*sessions_.insert(sessions_.begin() +
                                  static_cast<std::ptrdiff_t>(lo),
                              std::move(s));
  }
  Session& dst = sessions_[lo];
  dst.first = std::min(dst.first, t);
  dst.last = std::max(dst.last, t);
  std::size_t hi = lo + 1;
  while (hi < sessions_.size() && sessions_[hi].first <= dst.last + gap) {
    kernel_.Merge(dst.state, sessions_[hi].state);
    dst.last = std::max(dst.last, sessions_[hi].last);
    ++hi;
  }
  sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                  sessions_.begin() + static_cast<std::ptrdiff_t>(hi));
  return &sessions_[lo];
}

void WindowAggOp::FoldColumns(const Message& m) {
  if (window().session()) {
    for (std::size_t i = 0; i < m.batch.keys.size(); ++i) {
      if (Session* s = SessionAt(m.batch.times[i], 1)) {
        s->state.last_event = std::max(s->state.last_event, m.event_time);
        kernel_.FoldOne(s->state, m.batch.keys[i], m.batch.values[i],
                        m.batch.times[i]);
      }
    }
    return;
  }
  const LogicalTime S = window().slide;
  plan_.Build(m.batch.times, window().size, S);
  const bool contiguous = plan_.contiguous();
  const std::uint32_t* rows = plan_.rows();
  for (const WindowPlan::Bucket& bucket : plan_.buckets()) {
    for (std::uint32_t j = 0; j < bucket.windows; ++j) {
      const LogicalTime b = bucket.first_end + static_cast<LogicalTime>(j) * S;
      if (b <= watermark()) {
        // The window ending at b already fired; folding into windows_[b]
        // would re-create it and duplicate its emission on the next
        // watermark advance.
        late_dropped_ += bucket.count;
        continue;
      }
      AggWindowState& w = windows_[b];
      w.last_event = std::max(w.last_event, m.event_time);
      if (contiguous) {
        kernel_.FoldRows(w, m.batch, bucket.begin, bucket.count);
      } else {
        kernel_.FoldRows(w, m.batch, rows + bucket.begin, bucket.count);
      }
    }
  }
}

void WindowAggOp::FoldSynthetic(const Message& m) {
  const std::int64_t n = m.batch.synthetic_count;
  const LogicalTime p = m.batch.progress;
  if (window().session()) {
    if (Session* s = SessionAt(p, n)) {
      s->state.last_event = std::max(s->state.last_event, m.event_time);
      kernel_.FoldSynthetic(s->state, n, p);
    }
    return;
  }
  const LogicalTime S = window().slide;
  for (LogicalTime b = ((p + S - 1) / S) * S; b < p + window().size; b += S) {
    if (b <= watermark()) {
      late_dropped_ += n;
      continue;
    }
    AggWindowState& w = windows_[b];
    w.last_event = std::max(w.last_event, m.event_time);
    kernel_.FoldSynthetic(w, n, p);
  }
}

void WindowAggOp::Invoke(const Message& m, InvokeContext& ctx) {
  // Fold both faces of the batch: joins upstream can emit mixed batches
  // that carry real columns *and* a synthetic tuple count.
  if (m.batch.columnar()) FoldColumns(m);
  if (m.batch.synthetic_count > 0) FoldSynthetic(m);

  if (!CreditProgress(m)) return;

  // Trigger every complete window in order.
  while (!windows_.empty() && windows_.begin()->first <= watermark()) {
    auto it = windows_.begin();
    EmitWindow(it->first, it->second, ctx);
    windows_.erase(it);
  }
  // Sessions close once the watermark passes last + gap; they are sorted by
  // `first` with strictly increasing ends, so closing from the front emits
  // in window-end order, like the map above.
  if (window().session()) {
    std::size_t closed = 0;
    while (closed < sessions_.size() &&
           sessions_[closed].last + window().gap <= watermark()) {
      EmitWindow(sessions_[closed].last + window().gap,
                 sessions_[closed].state, ctx);
      ++closed;
    }
    sessions_.erase(sessions_.begin(),
                    sessions_.begin() + static_cast<std::ptrdiff_t>(closed));
  }
}

void WindowAggOp::EmitWindow(LogicalTime window_end, const AggWindowState& w,
                             InvokeContext& ctx) {
  EventBatch out;
  out.progress = window_end;
  // Tuples are stamped with the window's inclusive end so a larger
  // downstream window buckets this partial aggregate correctly. An empty
  // accumulator yields a progress-only batch (no fabricated values).
  kernel_.Emit(w, window_end, out);
  SimTime event_time = w.last_event == kTimeMin ? ctx.now : w.last_event;
  ctx.emitter->Emit(0, std::move(out), event_time);
}

}  // namespace cameo
