#include "ops/windowed_join.h"

#include <algorithm>
#include <unordered_map>

namespace cameo {

WindowedJoinOp::WindowedJoinOp(std::string name, LogicalTime window_size,
                               CostModel cost)
    : WindowedOperator(std::move(name), WindowSpec::Tumbling(window_size),
                       cost, /*min_channels=*/2) {}

void WindowedJoinOp::SetLeftInputs(const std::vector<OperatorId>& left) {
  left_inputs_.clear();
  for (OperatorId id : left) left_inputs_.insert(id.value);
}

void WindowedJoinOp::Invoke(const Message& m, InvokeContext& ctx) {
  const LogicalTime S = window().slide;
  const bool is_left = left_inputs_.count(m.sender.value) > 0;

  if (m.batch.columnar()) {
    for (std::size_t i = 0; i < m.batch.keys.size(); ++i) {
      LogicalTime b = ((m.batch.times[i] + S - 1) / S) * S;  // inclusive end
      if (b <= watermark()) {
        // Window already fired; folding would re-create (and re-emit) it.
        ++late_dropped_;
        continue;
      }
      WindowState& w = windows_[b];
      w.last_event = std::max(w.last_event, m.event_time);
      Side& side = is_left ? w.left : w.right;
      side.keys.push_back(m.batch.keys[i]);
      side.values.push_back(m.batch.values[i]);
    }
  }
  if (m.batch.synthetic_count > 0) {
    LogicalTime b = ((m.batch.progress + S - 1) / S) * S;
    if (b <= watermark()) {
      late_dropped_ += m.batch.synthetic_count;
    } else {
      WindowState& w = windows_[b];
      w.last_event = std::max(w.last_event, m.event_time);
      Side& side = is_left ? w.left : w.right;
      side.synthetic += m.batch.synthetic_count;
    }
  }

  if (!CreditProgress(m)) return;
  while (!windows_.empty() && windows_.begin()->first <= watermark()) {
    auto it = windows_.begin();
    EmitWindow(it->first, it->second, ctx);
    windows_.erase(it);
  }
}

void WindowedJoinOp::EmitWindow(LogicalTime window_end, const WindowState& w,
                                InvokeContext& ctx) {
  EventBatch out;
  out.progress = window_end;
  const LogicalTime stamp = window_end;  // inclusive window end

  if (!w.left.keys.empty() || !w.right.keys.empty()) {
    // Hash join: build on the smaller side, probe with the larger.
    const Side& build = w.left.keys.size() <= w.right.keys.size() ? w.left
                                                                  : w.right;
    const Side& probe = &build == &w.left ? w.right : w.left;
    std::unordered_multimap<std::int64_t, double> table;
    table.reserve(build.keys.size());
    for (std::size_t i = 0; i < build.keys.size(); ++i) {
      table.emplace(build.keys[i], build.values[i]);
    }
    for (std::size_t i = 0; i < probe.keys.size(); ++i) {
      auto [lo, hi] = table.equal_range(probe.keys[i]);
      for (auto it = lo; it != hi; ++it) {
        out.Append(probe.keys[i], probe.values[i] * it->second, stamp);
      }
    }
  }
  // Volume matches ride along even when the window also produced keyed
  // output: a mixed window emits columns + synthetic count (the batch size
  // is their sum), otherwise mixed windows undercount.
  std::int64_t synthetic_matches = std::min(w.left.synthetic,
                                            w.right.synthetic);
  if (synthetic_matches > 0) out.synthetic_count = synthetic_matches;
  // Emit even when empty so downstream progress advances past this window.
  SimTime event_time = w.last_event == kTimeMin ? ctx.now : w.last_event;
  ctx.emitter->Emit(0, std::move(out), event_time);
}

}  // namespace cameo
