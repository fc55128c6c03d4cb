#include "trace.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "shard/wire.h"

namespace perfbench {

using cameo::Message;
using cameo::Operator;
using cameo::WorkerId;
namespace shard = cameo::shard;

namespace {

// The time-stamp counter costs a few nanoseconds per read where a
// steady_clock read costs ~20; ticks are converted to nanoseconds with the
// rate observed over the loop's lifetime.
std::uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(WallNs());
#endif
}

class Collector final : public cameo::Emitter {
 public:
  explicit Collector(std::vector<std::tuple<int, cameo::EventBatch, SimTime>>& outs)
      : outs_(outs) {}
  void Emit(int port, cameo::EventBatch batch, SimTime event_time) override {
    outs_.emplace_back(port, std::move(batch), event_time);
  }

 private:
  std::vector<std::tuple<int, cameo::EventBatch, SimTime>>& outs_;
};

TraceLoop::Layer LayerOf(const Operator& op) {
  if (op.is_source()) return TraceLoop::kOpSource;
  if (op.is_sink()) return TraceLoop::kOpSink;
  if (dynamic_cast<const cameo::KeyedCounterOp*>(&op) != nullptr) {
    return TraceLoop::kOpKeyedCounter;
  }
  const std::string& name = op.name();
  const std::string merge = "/merge";
  if (name.size() >= merge.size() &&
      name.compare(name.size() - merge.size(), merge.size(), merge) == 0) {
    return TraceLoop::kOpMerge;
  }
  return TraceLoop::kOpWindowAgg;
}

}  // namespace

template <typename Fn>
decltype(auto) TraceLoop::Timed(Layer layer, Fn&& fn) {
  if (!on_) return fn();
  struct Guard {
    Span& span;
    std::uint64_t t0;
    ~Guard() {
      span.ticks += Ticks() - t0;
      ++span.calls;
    }
  } guard{spans_[layer], Ticks()};
  return fn();
}

TraceLoop::TraceLoop(cameo::DataflowGraph graph, int shards,
                     const shard::FaultPlan& faults, std::uint64_t seed,
                     bool spans)
    : g_(std::move(graph)),
      num_shards_(shards),
      on_(spans),
      placement_(shards, seed),
      rng_(seed),
      start_ns_(WallNs()),
      start_ticks_(Ticks()) {
  for (int s = 0; s < shards; ++s) {
    ShardState st;
    st.policy = cameo::MakePolicy("LLF", cameo::PolicyOptions{.seed = seed});
    st.policy->BindCostReader(&profiler_);
    st.sched = cameo::MakeScheduler(cameo::SchedulerKind::kCameo, 1, {});
    shards_.push_back(std::move(st));
  }
  if (shards > 1) {
    link_ = std::make_unique<shard::InprocTransport>(
        shard::DelayModel{cameo::Millis(1), cameo::Micros(100)}, seed);
    shard::FaultPlan plan = faults;
    if (plan.seed == 1) plan.seed = seed;
    faulty_ = std::make_unique<shard::FaultInjectingTransport>(link_.get(), plan);
    faulty_->Start(shards);
    shard::SessionConfig cfg;
    cfg.enabled = true;
    cfg.seed = seed;
    session_ = std::make_unique<shard::SessionLayer>(cfg, faulty_.get());
    session_->Start(shards);
  }
  for (JobId job : g_.job_ids()) {
    cameo::ConverterOptions opts;
    opts.time_domain = g_.job(job).time_domain;
    for (OperatorId op : g_.OperatorsOf(job)) {
      conv_[op] = std::make_unique<cameo::ContextConverter>(
          shards_[static_cast<std::size_t>(ShardOf(op))].policy.get(), opts);
      profiler_.Seed(op, 0);
      op_layer_[op] = LayerOf(g_.Get(op));
    }
  }
}

TraceLoop::~TraceLoop() = default;

double TraceLoop::Ns(Layer layer) const {
  const double ticks = static_cast<double>(Ticks() - start_ticks_);
  const double ns = static_cast<double>(WallNs() - start_ns_);
  return ticks > 0 ? static_cast<double>(spans_[layer].ticks) * ns / ticks : 0;
}

double TraceLoop::LayerSumNs() const {
  double sum = 0;
  for (int l = 0; l < kLayers; ++l) sum += Ns(static_cast<Layer>(l));
  return sum;
}

void TraceLoop::Enqueue(Message m, WorkerId producer) {
  cameo::Scheduler& sched =
      *shards_[static_cast<std::size_t>(ShardOf(m.target))].sched;
  Timed(kEnqueue, [&] { sched.Enqueue(std::move(m), producer, Now()); });
}

void TraceLoop::Ingest(OperatorId source, cameo::EventBatch batch) {
  const Operator& op = g_.Get(source);
  const cameo::JobSpec& spec = g_.job(op.job());
  LogicalTime& last = last_progress_[source];
  if (batch.progress <= last) batch.progress = last + 1;
  last = batch.progress;
  cameo::SourceEvent e;
  e.p = batch.progress;
  e.t = Now();
  Message m;
  m.pc = Timed(kConvert, [&] {
    return Conv(source).BuildCxtAtSource(e, op, spec.latency_constraint,
                                         cameo::MessageId{next_id_++});
  });
  m.id = m.pc.id;
  m.target = source;
  m.event_time = e.t;
  m.batch = std::move(batch);
  Enqueue(std::move(m), WorkerId{});
}

void TraceLoop::Reset() {
  spans_ = {};
  messages_ = 0;
  claims_ = 0;
  frames_ = 0;
}

void TraceLoop::Drain() {
  for (;;) {
    bool worked = false;
    for (int s = 0; s < num_shards_; ++s) worked |= DispatchOne(s);
    if (!worked && !Pump()) return;
  }
}

bool TraceLoop::DispatchOne(int shard) {
  cameo::Scheduler& sched = *shards_[static_cast<std::size_t>(shard)].sched;
  batch_.clear();
  const std::size_t n = Timed(
      kDequeue, [&] { return sched.DequeueBatch(WorkerId{0}, Now(), batch_); });
  if (n == 0) return false;
  ++claims_;
  messages_ += static_cast<std::int64_t>(n);
  const OperatorId target = batch_.front().target;
  Operator& op = g_.Get(target);
  const Layer layer = op_layer_.at(target);
  for (Message& msg : batch_) {
    outs_.clear();
    Collector emitter(outs_);
    const SimTime exec_start = Now();
    cameo::InvokeContext ctx{exec_start, &emitter, &rng_};
    Timed(layer, [&] { op.Invoke(msg, ctx); });
    spans_[layer].rows += msg.batch.size();
    const SimTime exec_end = Now();
    Timed(kPolicy, [&] {
      profiler_.Record(target, exec_end - exec_start);
      shards_[static_cast<std::size_t>(shard)].policy->OnInvoked(
          target, op.job(), exec_end - exec_start, exec_end);
    });
    Route(msg, op, shard);
    if (msg.sender.valid()) Reply(msg, op, exec_start, shard);
    msg.batch.Recycle();
  }
  Timed(kComplete, [&] { sched.OnComplete(target, WorkerId{0}, Now()); });
  return true;
}

void TraceLoop::Route(const Message& m, const Operator& op, int shard) {
  for (auto& out : outs_) {
    const SimTime event_time = std::get<2>(out);
    auto deliveries = Timed(kRoute, [&] {
      return g_.Route(m.target, std::get<0>(out), std::move(std::get<1>(out)));
    });
    for (auto& d : deliveries) {
      Message md;
      md.pc = Timed(kConvert, [&] {
        return Conv(m.target).BuildCxtAtOperator(m.pc, op, g_.Get(d.target),
                                                 d.batch.progress, event_time,
                                                 cameo::MessageId{next_id_++});
      });
      md.id = md.pc.id;
      md.target = d.target;
      md.sender = m.target;
      md.event_time = event_time;
      md.batch = std::move(d.batch);
      const int to = ShardOf(d.target);
      if (to == shard) {
        Enqueue(std::move(md), WorkerId{0});
        continue;
      }
      shard::WireFrame frame = shard::AcquireFrame();
      Timed(kEncode, [&] { shard::EncodeMessage(md, frame); });
      md.batch.Recycle();
      Ship(shard, to, std::move(frame));
    }
  }
}

void TraceLoop::Reply(const Message& m, const Operator& op, SimTime exec_start,
                      int shard) {
  const cameo::ReplyContext rc = Timed(kConvert, [&] {
    return Conv(m.target).PrepareReply(profiler_.Estimate(m.target),
                                       exec_start - m.enqueue_time,
                                       op.is_sink());
  });
  const int to = ShardOf(m.sender);
  if (to == shard) {
    Timed(kConvert, [&] { Conv(m.sender).ProcessCtxFromReply(m.target, rc); });
    return;
  }
  shard::WireFrame frame = shard::AcquireFrame();
  Timed(kEncode, [&] { shard::EncodeReply(m.sender, m.target, rc, frame); });
  Ship(shard, to, std::move(frame));
}

void TraceLoop::Ship(int from, int to, shard::WireFrame frame) {
  Timed(kSession, [&] { session_->Send(from, to, vt_, std::move(frame)); });
  ++outstanding_;
  ++frames_;
}

bool TraceLoop::Pump() {
  if (outstanding_ == 0) return false;
  // Half the link delay per step: frames become due within two steps, and a
  // dropped frame is repaired once its retransmit timer fires.
  vt_ += cameo::Micros(500);
  CAMEO_CHECK(vt_ < cameo::Seconds(3600) && "traced network never quiesced");
  for (int s = 0; s < num_shards_; ++s) {
    Timed(kSession, [&] { session_->Service(s, vt_, nullptr); });
  }
  for (int s = 0; s < num_shards_; ++s) {
    for (;;) {
      shard::WireFrame frame;
      int from = -1;
      if (!Timed(kSession, [&] { return session_->Receive(s, vt_, frame, from); })) {
        break;
      }
      --outstanding_;
      shard::FrameKind kind{};
      CAMEO_CHECK(shard::PeekFrameKind(frame, kind));
      if (kind == shard::FrameKind::kData) {
        Message m;
        CAMEO_CHECK(Timed(kDecode, [&] { return shard::DecodeMessage(frame, m); }));
        shard::ReleaseFrame(std::move(frame));
        Enqueue(std::move(m), WorkerId{});
      } else {
        shard::WireReply r;
        CAMEO_CHECK(Timed(kDecode, [&] { return shard::DecodeReply(frame, r); }));
        shard::ReleaseFrame(std::move(frame));
        Timed(kConvert, [&] { Conv(r.sender).ProcessCtxFromReply(r.from, r.rc); });
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void TraceReplay(const Inputs& in, Duration slice, int shards,
                 const shard::FaultPlan& faults, std::uint64_t seed,
                 const LayerCounts& c, Report& report) {
  double wall[2] = {0, 0};
  std::unique_ptr<TraceLoop> traced;
  for (int on = 0; on < 2; ++on) {
    cameo::DataflowGraph g;
    const std::vector<Tenant> tenants = AddTenants(g, in.specs, false);
    auto loop = std::make_unique<TraceLoop>(std::move(g), shards, faults, seed,
                                            on == 1);
    auto send = [&](LogicalTime base) {
      return [&, base](const Entry& e) {
        loop->Ingest(tenants[e.tenant].sources[e.source],
                     MakeBatch(in, e, base));
      };
    };
    auto drain = [&] { loop->Drain(); };
    RunRounds(in, 0, kWarmup, kBacklogRound, send(0), drain);
    loop->Reset();
    const std::int64_t t0 = WallNs();
    RunRounds(in, 0, slice, kBacklogRound, send(kBase), drain);
    wall[on] = static_cast<double>(WallNs() - t0);
    if (on == 1) traced = std::move(loop);
  }
  ReportLayers(*traced, wall[1], wall[0], c, report);
}

void CollectProbes(const std::vector<Tenant>& tenants, LayerCounts& c) {
  for (const Tenant& t : tenants) {
    for (const Probe* p : t.probes) {
      std::vector<double>& out =
          p->kind() == Probe::Kind::kWait ? c.ls_wait_ns : c.ba_invoke_ns;
      for (Duration d : p->samples()) out.push_back(static_cast<double>(d));
    }
    for (const cameo::KeyedCounterOp* k : t.counters) {
      c.keys_live += static_cast<std::int64_t>(k->live_keys());
      c.rehashes += k->store().rehashes();
    }
  }
}

void ReportLayers(const TraceLoop& traced, double traced_wall_ns,
                  double untraced_wall_ns, const LayerCounts& c,
                  Report& report) {
  using L = TraceLoop;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double msgs = static_cast<double>(traced.messages());
  auto per_msg = [&](L::Layer l) { return ratio(traced.Ns(l), msgs); };
  auto per_call = [&](L::Layer l) {
    return ratio(traced.Ns(l), static_cast<double>(traced.span(l).calls));
  };
  auto per_row = [&](L::Layer l) {
    return ratio(traced.Ns(l), static_cast<double>(traced.span(l).rows));
  };
  const double frames = static_cast<double>(traced.frames());

  report.LayerMetric("core.convert.ns_per_msg", per_msg(L::kConvert), "ns");
  report.LayerMetric("core.policy.ns_per_msg", per_msg(L::kPolicy), "ns");
  report.LayerMetric("sched.enqueue.ns", per_call(L::kEnqueue), "ns");
  report.LayerMetric("sched.dequeue.ns", per_call(L::kDequeue), "ns");
  report.LayerMetric("sched.complete.ns", per_call(L::kComplete), "ns");
  report.LayerMetric("sched.msgs_per_claim",
                ratio(msgs, static_cast<double>(traced.claims())), "count");
  report.LayerMetric("sched.swaps_per_msg",
                ratio(static_cast<double>(c.sched.operator_swaps),
                      static_cast<double>(c.sched.dispatched)),
                "count");
  report.LayerMetric("sched.ls_wait_p99_us", Quantile(c.ls_wait_ns, 0.99) / 1e3, "us");
  report.LayerMetric("dataflow.route.ns_per_msg", per_msg(L::kRoute), "ns");
  report.LayerMetric("ops.window_agg.ns_per_row", per_row(L::kOpWindowAgg), "ns");
  report.LayerMetric("ops.keyed_counter.ns_per_row", per_row(L::kOpKeyedCounter), "ns");
  report.LayerMetric("ops.merge.ns_per_row", per_row(L::kOpMerge), "ns");
  report.LayerMetric("ops.ba_invoke_p99_us", Quantile(c.ba_invoke_ns, 0.99) / 1e3, "us");
  report.LayerMetric("state.keys_live", static_cast<double>(c.keys_live), "count");
  report.LayerMetric("state.rehashes", static_cast<double>(c.rehashes), "count");
  report.LayerMetric("shard.encode.ns_per_frame", per_call(L::kEncode), "ns");
  report.LayerMetric("shard.decode.ns_per_frame", per_call(L::kDecode), "ns");
  report.LayerMetric("shard.bytes_per_frame",
                ratio(static_cast<double>(c.wire.bytes_encoded),
                      static_cast<double>(c.wire.frames_encoded)),
                "bytes");
  report.LayerMetric("shard.session.ns_per_frame", ratio(traced.Ns(L::kSession), frames),
                "ns");
  report.LayerMetric("shard.retransmits_per_frame",
                ratio(static_cast<double>(c.transport.retransmits),
                      static_cast<double>(c.transport.sent_unique)),
                "count");
  report.LayerMetric("shard.delivered_per_sent",
                ratio(static_cast<double>(c.transport.delivered),
                      static_cast<double>(c.transport.frames_sent)),
                "ratio");
  report.LayerMetric("runtime.ingest.ns", c.ingest_ns_per_call, "ns");
  const double layer_sum = ratio(traced.LayerSumNs(), msgs);
  report.LayerMetric("runtime.glue.ns_per_msg", c.e2e_ns_per_msg - layer_sum, "ns");
  report.LayerMetric("gen.lag_p50_us", Quantile(c.gen_lag_ns, 0.5) / 1e3, "us");
  report.LayerMetric("gen.lag_p99_ms", Quantile(c.gen_lag_ns, 0.99) / 1e6, "ms");
  report.LayerMetric("trace.coverage", ratio(layer_sum, c.e2e_ns_per_msg), "ratio");
  report.LayerMetric("trace.overhead_frac",
                ratio(traced_wall_ns - untraced_wall_ns, untraced_wall_ns), "ratio");
  report.Info("trace.layer_sum_ns_per_msg", layer_sum);
  report.Info("trace.e2e_ns_per_msg", c.e2e_ns_per_msg);
  report.Info("trace.messages", msgs);
}

}  // namespace perfbench
