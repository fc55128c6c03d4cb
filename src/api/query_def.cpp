#include "api/query_def.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/windowed_join.h"

namespace cameo {

namespace {

/// Upstream operator ids that can deliver to replica `idx` of a stage,
/// mirroring DataflowGraph::Route's partition semantics.
std::vector<std::int64_t> ChannelIds(const DataflowGraph& g,
                                     const StageInfo& stage, int idx) {
  std::vector<std::int64_t> ids;
  for (std::size_t e = 0; e < stage.upstream.size(); ++e) {
    const StageInfo& up = g.stage(stage.upstream[e]);
    // Find the partition used on the edge up -> stage.
    Partition part = Partition::kKeyHash;
    for (std::size_t p = 0; p < up.downstream.size(); ++p) {
      if (up.downstream[p] == stage.id) {
        part = up.partition[p];
        break;
      }
    }
    switch (part) {
      case Partition::kOneToOne:
        // Route maps upstream replica i to downstream replica i (equal
        // parallelism is enforced at Connect time).
        ids.push_back(up.operators[static_cast<std::size_t>(idx)].value);
        break;
      case Partition::kShard: {
        for (int i = 0; i < up.parallelism; ++i) {
          if (i % stage.parallelism == idx) {
            ids.push_back(up.operators[static_cast<std::size_t>(i)].value);
          }
        }
        break;
      }
      case Partition::kKeyHash:
      case Partition::kRoundRobin:
      case Partition::kBroadcast:
        for (OperatorId op : up.operators) ids.push_back(op.value);
        break;
    }
  }
  return ids;
}

bool IsSource(const StageDef& s) {
  return s.kind == StageDef::Kind::kSource ||
         s.kind == StageDef::Kind::kSourceRight;
}

}  // namespace

void FinalizeChannels(DataflowGraph& g, JobId job) {
  for (StageId sid : g.stages_of(job)) {
    const StageInfo& stage = g.stage(sid);
    if (stage.upstream.empty()) continue;
    for (int i = 0; i < stage.parallelism; ++i) {
      std::vector<std::int64_t> ids = ChannelIds(g, stage, i);
      if (ids.empty()) continue;
      Operator& op = g.Get(stage.operators[static_cast<std::size_t>(i)]);
      if (auto* windowed = dynamic_cast<WindowedOperator*>(&op)) {
        windowed->SetChannels(std::move(ids));
      }
    }
  }
}

ArrivalProcessFactory MakeArrivalFactory(const IngestSpec& spec) {
  switch (spec.kind) {
    case IngestSpec::Kind::kConstant:
      if (spec.aligned) {
        // Aligned batching clients: replica r sends each interval's batch a
        // small, fixed phase after the boundary (paper model: 1000 events
        // buffered per second, then sent).
        return [spec](int replica) {
          Duration phase = spec.phase + Millis(2) + replica * Millis(9);
          return std::make_unique<ConstantRate>(
              spec.msgs_per_sec, spec.tuples_per_msg, spec.start, spec.end,
              phase, /*aligned=*/true);
        };
      }
      return [spec](int) {
        return std::make_unique<ConstantRate>(spec.msgs_per_sec,
                                              spec.tuples_per_msg, spec.start,
                                              spec.end, spec.phase,
                                              /*aligned=*/false);
      };
    case IngestSpec::Kind::kPoisson:
      return [spec](int) {
        return std::make_unique<PoissonArrivals>(
            spec.msgs_per_sec, spec.tuples_per_msg, spec.start, spec.end);
      };
    case IngestSpec::Kind::kParetoBurst: {
      double mean_per_interval = spec.msgs_per_sec * spec.tuples_per_msg;
      int msgs_per_interval =
          std::max(1, static_cast<int>(spec.msgs_per_sec));
      return [spec, mean_per_interval, msgs_per_interval](int) {
        return std::make_unique<ParetoBurst>(
            mean_per_interval, spec.pareto_alpha, msgs_per_interval, kSecond,
            spec.start, spec.end);
      };
    }
    case IngestSpec::Kind::kCustom:
      CAMEO_EXPECTS(spec.custom != nullptr);
      return spec.custom;
  }
  CAMEO_CHECK(false && "unknown ingest kind");
  return {};
}

QueryDef::QueryDef(std::string name) : name_(std::move(name)) {}

QueryDef Query(std::string name) { return QueryDef(std::move(name)); }

QueryDef& QueryDef::Constraint(Duration latency_constraint) {
  latency_constraint_ = latency_constraint;
  return *this;
}

QueryDef& QueryDef::EventTime() { return Domain(TimeDomain::kEventTime); }

QueryDef& QueryDef::IngestionTime() {
  return Domain(TimeDomain::kIngestionTime);
}

QueryDef& QueryDef::Domain(TimeDomain domain) {
  domain_ = domain;
  return *this;
}

QueryDef& QueryDef::TokenRate(double per_source_per_sec) {
  token_rate_per_sec_ = per_source_per_sec;
  return *this;
}

QueryDef& QueryDef::Shuffle() {
  next_input_ = Partition::kShard;
  return *this;
}

QueryDef& QueryDef::KeyBy() {
  next_input_ = Partition::kKeyHash;
  next_split_ = 1;
  return *this;
}

QueryDef& QueryDef::KeyBy(int splits) {
  CAMEO_EXPECTS(splits >= 1);
  next_input_ = Partition::kKeyHash;
  next_split_ = splits;
  return *this;
}

QueryDef& QueryDef::RoundRobin() {
  next_input_ = Partition::kRoundRobin;
  return *this;
}

QueryDef& QueryDef::Broadcast() {
  next_input_ = Partition::kBroadcast;
  return *this;
}

QueryDef& QueryDef::OneToOne() {
  next_input_ = Partition::kOneToOne;
  return *this;
}

QueryDef& QueryDef::Append(StageDef stage) {
  CAMEO_EXPECTS(stage.parallelism >= 1);
  stage.input = next_input_;
  stage.input_split = next_split_;
  next_input_ = Partition::kShard;
  next_split_ = 1;
  stages_.push_back(std::move(stage));
  return *this;
}

QueryDef& QueryDef::Source(int replicas, CostModel cost, std::string stage) {
  StageDef s;
  s.kind = StageDef::Kind::kSource;
  s.name = std::move(stage);
  s.parallelism = replicas;
  s.cost = cost;
  return Append(std::move(s));
}

QueryDef& QueryDef::RightSource(int replicas, CostModel cost,
                                std::string stage) {
  StageDef s;
  s.kind = StageDef::Kind::kSourceRight;
  s.name = std::move(stage);
  s.parallelism = replicas;
  s.cost = cost;
  return Append(std::move(s));
}

QueryDef& QueryDef::Map(int replicas, CostModel cost, MapOp::Fn fn,
                        std::string stage) {
  StageDef s;
  s.kind = StageDef::Kind::kMap;
  s.name = std::move(stage);
  s.parallelism = replicas;
  s.cost = cost;
  s.map_fn = std::move(fn);
  return Append(std::move(s));
}

QueryDef& QueryDef::Filter(int replicas, CostModel cost,
                           FilterOp::Predicate pred, double selectivity,
                           std::string stage) {
  StageDef s;
  s.kind = StageDef::Kind::kFilter;
  s.name = std::move(stage);
  s.parallelism = replicas;
  s.cost = cost;
  s.filter_fn = std::move(pred);
  s.filter_selectivity = selectivity;
  return Append(std::move(s));
}

QueryDef& QueryDef::WindowAgg(int replicas, WindowSpec window, CostModel cost,
                              AggKind agg, bool per_key, std::string stage) {
  CAMEO_EXPECTS(window.slide > 0 && window.size >= window.slide);
  StageDef s;
  s.kind = StageDef::Kind::kWindowAgg;
  s.name = std::move(stage);
  s.parallelism = replicas;
  s.cost = cost;
  s.window = window;
  s.agg = agg;
  s.per_key = per_key;
  return Append(std::move(s));
}

QueryDef& QueryDef::SessionAgg(int replicas, LogicalTime gap, CostModel cost,
                               AggKind agg, bool per_key, std::string stage) {
  CAMEO_EXPECTS(gap > 0);
  return WindowAgg(replicas, WindowSpec::Session(gap), cost, agg, per_key,
                   std::move(stage));
}

QueryDef& QueryDef::TopK(int replicas, WindowSpec window, CostModel cost,
                         int k, std::string stage) {
  CAMEO_EXPECTS(k >= 1);
  AggParams params;
  params.top_k = k;
  QueryDef& self =
      WindowAgg(replicas, window, cost, AggKind::kTopK, false,
                std::move(stage));
  stages_.back().agg_params = params;
  return self;
}

QueryDef& QueryDef::Percentile(int replicas, WindowSpec window, CostModel cost,
                               double q, std::string stage) {
  CAMEO_EXPECTS(q >= 0 && q <= 100);
  AggParams params;
  params.quantile = q;
  QueryDef& self = WindowAgg(replicas, window, cost, AggKind::kPercentile,
                             false, std::move(stage));
  stages_.back().agg_params = params;
  return self;
}

QueryDef& QueryDef::Ohlc(int replicas, WindowSpec window, CostModel cost,
                         std::string stage) {
  return WindowAgg(replicas, window, cost, AggKind::kOhlc, false,
                   std::move(stage));
}

QueryDef& QueryDef::KeyedCounter(int replicas, WindowSpec window,
                                 CostModel cost, KeyedCounterOptions opts,
                                 std::string stage) {
  CAMEO_EXPECTS(window.slide > 0 && window.size >= window.slide);
  CAMEO_EXPECTS(!window.session());
  StageDef s;
  s.kind = StageDef::Kind::kKeyedCounter;
  s.name = std::move(stage);
  s.parallelism = replicas;
  s.cost = cost;
  s.window = window;
  s.counter = opts;
  return Append(std::move(s));
}

QueryDef& QueryDef::WindowedJoin(int replicas, LogicalTime window,
                                 CostModel cost, std::string stage) {
  CAMEO_EXPECTS(window > 0);
  StageDef s;
  s.kind = StageDef::Kind::kWindowedJoin;
  s.name = std::move(stage);
  s.parallelism = replicas;
  s.cost = cost;
  s.window = WindowSpec::Tumbling(window);
  return Append(std::move(s));
}

QueryDef& QueryDef::Sink(CostModel cost, std::string stage) {
  StageDef s;
  s.kind = StageDef::Kind::kSink;
  s.name = std::move(stage);
  s.parallelism = 1;
  s.cost = cost;
  return Append(std::move(s));
}

QueryDef& QueryDef::Ingest(IngestSpec spec) {
  ingest_ = std::move(spec);
  return *this;
}

QueryDef& QueryDef::IngestConstant(double msgs_per_sec,
                                   std::int64_t tuples_per_msg,
                                   Duration event_time_delay) {
  IngestSpec spec;
  spec.kind = IngestSpec::Kind::kConstant;
  spec.msgs_per_sec = msgs_per_sec;
  spec.tuples_per_msg = tuples_per_msg;
  spec.event_time_delay = event_time_delay;
  return Ingest(std::move(spec));
}

QueryDef& QueryDef::Keys(KeySamplerFactory sampler) {
  CAMEO_EXPECTS(ingest_.has_value());
  CAMEO_EXPECTS(sampler != nullptr);
  ingest_->key_sampler = std::move(sampler);
  return *this;
}

const IngestSpec& QueryDef::ingest() const {
  CAMEO_EXPECTS(ingest_.has_value());
  return *ingest_;
}

JobHandles QueryDef::Build(DataflowGraph& g) const {
  CAMEO_EXPECTS(stages_.size() >= 2);
  CAMEO_EXPECTS(stages_.front().kind == StageDef::Kind::kSource);
  CAMEO_EXPECTS(stages_.back().kind == StageDef::Kind::kSink);

  JobSpec job;
  job.name = name_;
  job.latency_constraint = latency_constraint_;
  job.time_domain = domain_;
  job.token_rate_per_sec = token_rate_per_sec_;
  // Output attribution window: the last windowed stage decides how metrics
  // map sink outputs back to the events that produced them. Slide 0 (no
  // windowed stage) marks a per-message pipeline.
  for (const StageDef& s : stages_) {
    if ((s.kind == StageDef::Kind::kWindowAgg ||
         s.kind == StageDef::Kind::kKeyedCounter ||
         s.kind == StageDef::Kind::kWindowedJoin) &&
        s.window.windowed()) {
      job.output_window = s.window.size;
      job.output_slide = s.window.slide;
    }
  }

  JobHandles h;
  h.job = g.AddJob(job);

  std::vector<StageId> sids;
  sids.reserve(stages_.size());
  for (const StageDef& s : stages_) {
    const std::string qualified = name_ + "/" + s.name;
    StageId sid = g.AddStage(
        h.job, qualified, s.parallelism,
        [&](int) -> std::unique_ptr<Operator> {
          switch (s.kind) {
            case StageDef::Kind::kSource:
            case StageDef::Kind::kSourceRight:
              return std::make_unique<SourceOp>(qualified, s.cost);
            case StageDef::Kind::kMap:
              return std::make_unique<MapOp>(qualified, s.cost, s.map_fn);
            case StageDef::Kind::kFilter:
              return std::make_unique<FilterOp>(qualified, s.cost, s.filter_fn,
                                                s.filter_selectivity);
            case StageDef::Kind::kWindowAgg:
              return std::make_unique<WindowAggOp>(qualified, s.window, s.cost,
                                                   s.agg, s.per_key,
                                                   s.agg_params);
            case StageDef::Kind::kKeyedCounter:
              return std::make_unique<KeyedCounterOp>(qualified, s.window,
                                                      s.cost, s.counter);
            case StageDef::Kind::kWindowedJoin:
              return std::make_unique<WindowedJoinOp>(qualified, s.window.size,
                                                      s.cost);
            case StageDef::Kind::kSink:
              return std::make_unique<SinkOp>(qualified, s.cost);
          }
          CAMEO_CHECK(false && "unknown stage kind");
          return nullptr;
        });
    sids.push_back(sid);
  }

  // Leading sources all feed the first downstream stage (srcL and srcR of a
  // join connect in definition order); from there the pipeline is linear.
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (IsSource(stages_[i])) {
      CAMEO_EXPECTS(frontier.empty() || IsSource(stages_[frontier.back()]));
      frontier.push_back(i);
      continue;
    }
    for (std::size_t u : frontier) {
      g.Connect(sids[u], sids[i], stages_[i].input, stages_[i].input_split);
    }
    frontier.assign(1, i);
  }

  for (std::size_t i = 0; i < stages_.size(); ++i) {
    switch (stages_[i].kind) {
      case StageDef::Kind::kSource:
        if (!h.source.valid()) h.source = sids[i];
        break;
      case StageDef::Kind::kSourceRight:
        CAMEO_EXPECTS(!h.source_right.valid());
        h.source_right = sids[i];
        break;
      default:
        break;
    }
  }
  h.sink = sids.back();
  h.stages = sids;

  // Tell every join replica which upstream operators feed its left side.
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].kind != StageDef::Kind::kWindowedJoin) continue;
    CAMEO_EXPECTS(h.source_right.valid());
    for (OperatorId op : g.stage(sids[i]).operators) {
      auto* join_op = dynamic_cast<WindowedJoinOp*>(&g.Get(op));
      CAMEO_CHECK(join_op != nullptr);
      join_op->SetLeftInputs(g.stage(h.source).operators);
    }
  }
  FinalizeChannels(g, h.job);
  return h;
}

QueryBuilder QueryDef::Builder() const {
  return [def = *this](DataflowGraph& g) { return def.Build(g); };
}

}  // namespace cameo
