#include "state/keyed_counter.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {

KeyedCounterOp::KeyedCounterOp(std::string name, WindowSpec window,
                               CostModel cost, KeyedCounterOptions opts)
    : WindowAggOp(std::move(name), window, cost, AggKind::kCount,
                  /*per_key=*/true) {
  CAMEO_EXPECTS(!window.session());
  CAMEO_EXPECTS(opts.ttl >= 0);
}

void KeyedCounterOp::Invoke(const Message& m, InvokeContext& ctx) {
  rows_seen_ += static_cast<std::int64_t>(m.batch.keys.size()) +
                std::max<std::int64_t>(m.batch.synthetic_count, 0);
  const LogicalTime before = watermark();
  WindowAggOp::Invoke(m, ctx);
  if (watermark() == before) return;
  const LogicalTime last_end = watermark() / window().slide * window().slide;
  if (last_end > emitted_progress_) {
    emitted_progress_ = last_end;
    EventBatch out;
    out.progress = last_end;
    ctx.emitter->Emit(0, std::move(out), ctx.now);
  }
}

void KeyedCounterOp::EmitWindow(LogicalTime window_end,
                                const AggWindowState& w, InvokeContext& ctx) {
  // Every row adds 1 to both the window's count and its key's count.
  count_emitted_ += static_cast<double>(w.count);
  emitted_progress_ = window_end;
  WindowAggOp::EmitWindow(window_end, w, ctx);
}

}  // namespace cameo
