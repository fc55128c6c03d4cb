// Stateless per-tuple operators: Map and Filter. Regular operators (trigger
// on every invocation); they transform columnar batches in place and forward
// synthetic batches unchanged (Filter scales their tuple count by the
// expected selectivity so downstream costs stay representative).
#pragma once

#include <functional>

#include "dataflow/operator.h"

namespace cameo {

class MapOp final : public Operator {
 public:
  /// `fn` transforms each (key, value) pair; may change both.
  using Fn = std::function<void(std::int64_t& key, double& value)>;

  MapOp(std::string name, CostModel cost, Fn fn)
      : Operator(std::move(name), WindowSpec::Regular(), cost),
        fn_(std::move(fn)) {}

  void Invoke(const Message& m, InvokeContext& ctx) override {
    // Transforms in place: moves an offered input instead of copying it.
    EventBatch out = ctx.input != nullptr ? std::move(*ctx.input) : m.batch;
    for (std::size_t i = 0; i < out.keys.size(); ++i) {
      fn_(out.keys[i], out.values[i]);
    }
    ctx.emitter->Emit(0, std::move(out), m.event_time);
  }

 private:
  Fn fn_;
};

class FilterOp final : public Operator {
 public:
  using Predicate = std::function<bool(std::int64_t key, double value)>;

  /// `selectivity` is the expected pass fraction, applied to synthetic
  /// (column-less) batches.
  FilterOp(std::string name, CostModel cost, Predicate pred,
           double selectivity = 1.0)
      : Operator(std::move(name), WindowSpec::Regular(), cost),
        pred_(std::move(pred)),
        selectivity_(selectivity) {}

  void Invoke(const Message& m, InvokeContext& ctx) override {
    if (!m.batch.columnar()) {
      EventBatch out = m.batch;
      out.synthetic_count = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 static_cast<double>(out.synthetic_count) * selectivity_));
      ctx.emitter->Emit(0, std::move(out), m.event_time);
      return;
    }
    EventBatch out;
    out.progress = m.batch.progress;
    // Mixed batches (columns + synthetic count, e.g. from a windowed join)
    // keep their synthetic face, scaled by the expected selectivity.
    if (m.batch.synthetic_count > 0) {
      out.synthetic_count = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 static_cast<double>(m.batch.synthetic_count) * selectivity_));
    }
    for (std::size_t i = 0; i < m.batch.keys.size(); ++i) {
      if (pred_(m.batch.keys[i], m.batch.values[i])) {
        out.Append(m.batch.keys[i], m.batch.values[i], m.batch.times[i]);
      }
    }
    // Progress must advance even when every tuple is dropped, or downstream
    // watermarks stall; an empty columnar batch still carries progress.
    ctx.emitter->Emit(0, std::move(out), m.event_time);
  }

 private:
  Predicate pred_;
  double selectivity_;
};

}  // namespace cameo
