#include "state/keyed_counter.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {
namespace {
constexpr std::uint32_t kCloseTag = 0;  // timer time = window end to close
constexpr std::uint32_t kTtlTag = 1;    // timer time = idle deadline
constexpr LogicalTime kFree = CounterSlate::kFree;
}  // namespace

KeyedCounterOp::KeyedCounterOp(std::string name, WindowSpec window,
                               CostModel cost, KeyedCounterOptions opts)
    : WindowedOperator(std::move(name), window, cost, /*min_channels=*/1),
      opts_(opts),
      wheel_(TimerWheel::WidthShiftCovering(window.size + opts.ttl)) {
  CAMEO_EXPECTS(window.windowed() && !window.session());
  CAMEO_EXPECTS(window.size >= window.slide);
  CAMEO_EXPECTS(opts_.ttl >= 0);
}

void KeyedCounterOp::ArmTtl(CounterSlate& slate, std::int64_t key) {
  if (opts_.ttl <= 0) return;
  // At most one outstanding timer per key: if the armed deadline is still in
  // the future, the fire handler will lazily re-arm from last_seen.
  if (slate.ttl_armed > watermark()) return;
  slate.ttl_armed = std::max(slate.last_seen + opts_.ttl, watermark() + 1);
  wheel_.Schedule(slate.ttl_armed, key, kTtlTag);
}

void KeyedCounterOp::FoldKey(std::int64_t key, double n, LogicalTime t,
                             LogicalTime B) {
  const std::size_t before = store_.size();
  CounterSlate& s = store_.Probe(key);
  if (store_.size() != before) ++inserted_;
  if (t > s.last_seen) s.last_seen = t;
  if (s.w0 == B) {
    s.c0 += n;
  } else if (s.w1 == B) {
    s.c1 += n;
  } else if (s.w0 == kFree) {
    s.w0 = B;
    s.c0 = n;
    wheel_.Schedule(B, key, kCloseTag);
  } else if (s.w1 == kFree) {
    s.w1 = B;
    s.c1 = n;
    wheel_.Schedule(B, key, kCloseTag);
  } else {
    // More than two windows open for this key (size > 2*slide): spill to the
    // per-window overflow store, swept by the same watermark.
    overflow_[B].Probe(key) += n;
    ++overflow_folds_;
  }
  ArmTtl(s, key);
}

void KeyedCounterOp::FoldColumns(const Message& m) {
  const LogicalTime S = window().slide;
  plan_.Build(m.batch.times, window().size, S);
  const bool contiguous = plan_.contiguous();
  const std::uint32_t* rows = plan_.rows();
  const std::int64_t* keys = m.batch.keys.data();
  const LogicalTime* times = m.batch.times.data();
  for (const WindowPlan::Bucket& bucket : plan_.buckets()) {
    if (opts_.mini_batch) {
      // Key-grouping pass: collapse the bucket to (key, rows, max time)
      // before touching the big store, so a key repeated k times in the
      // batch costs one store probe per window instead of k.
      batch_scratch_.Clear();
      scratch_pairs_.clear();
      for (std::uint32_t r = 0; r < bucket.count; ++r) {
        const std::uint32_t row =
            contiguous ? bucket.begin + r : rows[bucket.begin + r];
        MiniCell& c = batch_scratch_.Probe(keys[row]);
        c.n += 1;
        if (times[row] > c.t) c.t = times[row];
      }
      batch_scratch_.AppendSorted(scratch_pairs_);
      for (std::uint32_t j = 0; j < bucket.windows; ++j) {
        const LogicalTime B =
            bucket.first_end + static_cast<LogicalTime>(j) * S;
        if (B <= watermark()) {
          late_dropped_ += bucket.count;
          continue;
        }
        for (const auto& [key, cell] : scratch_pairs_) {
          FoldKey(key, cell.n, cell.t, B);
        }
      }
    } else {
      for (std::uint32_t j = 0; j < bucket.windows; ++j) {
        const LogicalTime B =
            bucket.first_end + static_cast<LogicalTime>(j) * S;
        if (B <= watermark()) {
          late_dropped_ += bucket.count;
          continue;
        }
        for (std::uint32_t r = 0; r < bucket.count; ++r) {
          const std::uint32_t row =
              contiguous ? bucket.begin + r : rows[bucket.begin + r];
          FoldKey(keys[row], 1.0, times[row], B);
        }
      }
    }
  }
}

void KeyedCounterOp::FoldSynthetic(const Message& m) {
  const std::int64_t n = m.batch.synthetic_count;
  if (n <= 0) return;
  // Synthetic tuples carry key 0 at the batch's progress time, matching
  // AggKernel::FoldSynthetic's per-key convention.
  const LogicalTime p = m.batch.progress;
  const LogicalTime S = window().slide;
  for (LogicalTime B = ((p + S - 1) / S) * S; B < p + window().size; B += S) {
    if (B <= watermark()) {
      late_dropped_ += n;
      continue;
    }
    FoldKey(0, static_cast<double>(n), p, B);
  }
}

void KeyedCounterOp::Invoke(const Message& m, InvokeContext& ctx) {
  rows_seen_ += static_cast<std::int64_t>(m.batch.keys.size()) +
                std::max<std::int64_t>(m.batch.synthetic_count, 0);
  if (m.batch.columnar()) FoldColumns(m);
  if (m.batch.synthetic_count > 0) FoldSynthetic(m);

  if (CreditProgress(m)) AdvanceWatermark(ctx);
}

void KeyedCounterOp::AdvanceWatermark(InvokeContext& ctx) {
  const LogicalTime wm = watermark();
  pending_emits_.clear();
  wheel_.Advance(wm, [&](LogicalTime t, std::int64_t key, std::uint32_t tag) {
    if (tag == kCloseTag) {
      // Close exactly the (key, window `t`) cell this timer was armed for.
      // TTL expiry can never race this: a key with a claimed cell is not
      // expirable (guard below), so the slate must still be live.
      CounterSlate* s = store_.Find(key);
      CAMEO_CHECK(s != nullptr);
      if (s->w0 == t) {
        pending_emits_.push_back({t, key, s->c0});
        s->w0 = kFree;
        s->c0 = 0;
      } else {
        CAMEO_CHECK(s->w1 == t);
        pending_emits_.push_back({t, key, s->c1});
        s->w1 = kFree;
        s->c1 = 0;
      }
      return;
    }
    CounterSlate* s = store_.Find(key);
    if (s == nullptr || t < s->ttl_armed) return;  // stale timer
    const LogicalTime deadline = s->last_seen + opts_.ttl;
    if (deadline > t) {
      // Activity since arming: lazy re-arm at the real deadline.
      s->ttl_armed = std::max(deadline, wm + 1);
      wheel_.Schedule(s->ttl_armed, key, kTtlTag);
    } else if (s->w0 != kFree || s->w1 != kFree) {
      // Idle, but windows are still open (ttl shorter than the window span):
      // defer expiry until after they close.
      s->ttl_armed = wm + 1;
      wheel_.Schedule(s->ttl_armed, key, kTtlTag);
    } else {
      store_.Erase(key);
      ++expired_;
    }
  });

  // Windows whose every fold overflowed have no close timer; sweep them from
  // the overflow map into the same emission set.
  while (!overflow_.empty() && overflow_.begin()->first <= wm) {
    auto it = overflow_.begin();
    overflow_pairs_.clear();
    it->second.AppendSorted(overflow_pairs_);
    for (const auto& [key, count] : overflow_pairs_) {
      pending_emits_.push_back({it->first, key, count});
    }
    overflow_.erase(it);
  }

  // One batch per window end, keys ascending -- identical shape to the
  // per-key AggKernel emission, and independent of timer schedule order. A
  // key can appear twice for one window (resident cell + overflow spill);
  // adjacent duplicates merge here.
  std::sort(pending_emits_.begin(), pending_emits_.end(),
            [](const PendingEmit& a, const PendingEmit& b) {
              if (a.end != b.end) return a.end < b.end;
              return a.key < b.key;
            });
  std::size_t i = 0;
  while (i < pending_emits_.size()) {
    const LogicalTime B = pending_emits_[i].end;
    EventBatch out;
    out.progress = B;
    while (i < pending_emits_.size() && pending_emits_[i].end == B) {
      const std::int64_t key = pending_emits_[i].key;
      double count = 0;
      while (i < pending_emits_.size() && pending_emits_[i].end == B &&
             pending_emits_[i].key == key) {
        count += pending_emits_[i].count;
        ++i;
      }
      out.Append(key, count, B);
      count_emitted_ += count;
    }
    emitted_progress_ = B;
    ctx.emitter->Emit(0, std::move(out), ctx.now);
  }
  pending_emits_.clear();

  // Keep downstream watermarks moving when this replica closed nothing: a
  // key-hash shard (or split sub-replica) that holds no keys for a stretch
  // must still report progress, or a merge stage downstream stalls forever.
  const LogicalTime S = window().slide;
  const LogicalTime last_end = (wm / S) * S;
  if (last_end > emitted_progress_) {
    emitted_progress_ = last_end;
    EventBatch out;
    out.progress = last_end;
    ctx.emitter->Emit(0, std::move(out), ctx.now);
  }
}

}  // namespace cameo
