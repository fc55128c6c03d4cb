// Source operator: the dataflow's entry point. Ingestion messages (built by
// the cluster's ingestion driver with BuildCxtAtSource) target a source
// replica, which forwards the batch downstream after an optional parse cost.
//
// The forward is a move when the caller offers the batch through
// `InvokeContext::input` (RunMessageStep does): the columns travel on
// without a copy, and the input reads 0 rows afterwards. A caller that
// offers nothing keeps its batch, and the source emits a copy.
#pragma once

#include "dataflow/operator.h"

namespace cameo {

class SourceOp final : public Operator {
 public:
  SourceOp(std::string name, CostModel cost)
      : Operator(std::move(name), WindowSpec::Regular(), cost) {}

  void Invoke(const Message& m, InvokeContext& ctx) override {
    if (ctx.input != nullptr) {
      ctx.emitter->Emit(0, std::move(*ctx.input), m.event_time);
    } else {
      ctx.emitter->Emit(0, m.batch, m.event_time);
    }
  }

  bool is_source() const override { return true; }
};

}  // namespace cameo
