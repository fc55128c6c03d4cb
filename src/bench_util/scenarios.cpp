// All scenario builders are expressed through the frontend API: each tenant
// is a fluent QueryDef with its ingestion spec attached, submitted to a
// SimEngine. The engine reproduces the classic build-graph/construct-
// cluster/attach-ingestion/run sequence call for call, so fixed-seed runs
// (tests/replay_test.cpp goldens) are bit-identical to the hand-wired past.
#include "bench_util/scenarios.h"

#include <algorithm>
#include <memory>

#include "api/sim_engine.h"
#include "common/check.h"
#include "state/keyed_counter.h"
#include "workload/keyed.h"

namespace cameo {

namespace {

IngestSpec::Kind ToIngestKind(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kConstant:
      return IngestSpec::Kind::kConstant;
    case ArrivalKind::kPoisson:
      return IngestSpec::Kind::kPoisson;
    case ArrivalKind::kPareto:
      return IngestSpec::Kind::kParetoBurst;
  }
  CAMEO_CHECK(false && "unknown arrival kind");
  return IngestSpec::Kind::kConstant;
}

}  // namespace

RunResult RunMultiTenant(const MultiTenantOptions& opt) {
  SimEngine engine(opt.engine);

  const int total = opt.ls_jobs + opt.ba_jobs;
  for (int i = 0; i < total; ++i) {
    const bool is_ls = i < opt.ls_jobs;
    QuerySpec spec =
        is_ls ? MakeLatencySensitiveSpec("LS" + std::to_string(i))
              : MakeBulkAnalyticsSpec("BA" + std::to_string(i - opt.ls_jobs));
    spec.sources = opt.sources_per_job;
    spec.aggs = opt.aggs_per_job;
    spec.msgs_per_sec_per_source =
        is_ls ? opt.ls_msgs_per_sec : opt.ba_msgs_per_sec;
    spec.tuples_per_msg = is_ls ? opt.ls_tuples_per_msg : opt.ba_tuples_per_msg;
    if (is_ls && opt.ls_constraint > 0) {
      spec.latency_constraint = opt.ls_constraint;
    }
    if (!is_ls && opt.ba_constraint > 0) {
      spec.latency_constraint = opt.ba_constraint;
    }

    IngestSpec ingest;
    ingest.kind =
        is_ls ? IngestSpec::Kind::kConstant : ToIngestKind(opt.ba_arrivals);
    ingest.msgs_per_sec = spec.msgs_per_sec_per_source;
    ingest.tuples_per_msg = spec.tuples_per_msg;
    ingest.end = opt.duration;
    ingest.pareto_alpha = opt.pareto_alpha;
    // Per-job phase: interleave_step spreads jobs' window triggers across
    // the interval (Fig. 14 right); the default keeps them clustered.
    ingest.phase = static_cast<Duration>(i) * opt.interleave_step +
                   static_cast<Duration>(i) * Millis(1);
    ingest.event_time_delay = opt.event_time_delay + i * opt.interleave_step;
    engine.Submit(AggregationQueryDef(spec).Ingest(ingest));
  }

  engine.RunFor(opt.duration);
  return engine.Summarize(opt.duration);
}

SingleTenantResult RunSingleTenant(const SingleTenantOptions& opt) {
  QuerySpec spec = MakeIpqSpec(opt.ipq);
  spec.msgs_per_sec_per_source *= opt.load_factor;

  SimEngine engine(opt.engine);

  IngestSpec ingest;
  ingest.msgs_per_sec = spec.msgs_per_sec_per_source;
  ingest.tuples_per_msg = spec.tuples_per_msg;
  ingest.end = opt.duration;
  ingest.event_time_delay = Millis(50);
  QueryDef def = opt.ipq == 4 ? JoinQueryDef(spec) : AggregationQueryDef(spec);
  QueryHandle q = engine.Submit(def.Ingest(ingest));
  if (opt.engine.sim.enable_timeline) {
    engine.cluster().timeline().SetJobFilter(q.job());
  }

  engine.RunFor(opt.duration);
  SingleTenantResult out;
  out.run = engine.Summarize(opt.duration);
  out.timeline = engine.cluster().timeline().records();
  out.latency = engine.Latency(q);
  return out;
}

RunResult RunSkewedScenario(const SkewScenarioOptions& opt) {
  SimEngine engine(opt.engine);

  Rng trace_rng(opt.engine.seed * 77 + 13);
  auto submit_jobs = [&](int count, const std::string& prefix,
                         double tuples_per_sec, double skew) {
    for (int i = 0; i < count; ++i) {
      QuerySpec spec = MakeLatencySensitiveSpec(prefix + std::to_string(i));
      spec.sources = opt.sources_per_job;
      spec.latency_constraint = opt.constraint;
      SkewedTraceSpec ts;
      ts.sources = opt.sources_per_job;
      ts.length = opt.duration;
      ts.total_tuples_per_sec = tuples_per_sec;
      ts.skew_ratio = skew;
      ts.burst_alpha = opt.burst_alpha;
      ts.msgs_per_interval = opt.msgs_per_interval;
      // Each replica replays its own per-source arrival list.
      auto trace = std::make_shared<std::vector<std::vector<Arrival>>>(
          SynthesizeSkewedTrace(ts, trace_rng));
      IngestSpec ingest;
      ingest.kind = IngestSpec::Kind::kCustom;
      ingest.event_time_delay = Millis(50);
      ingest.custom = [trace](int replica) {
        return std::make_unique<ReplayTrace>(
            (*trace)[static_cast<std::size_t>(replica)]);
      };
      engine.Submit(AggregationQueryDef(spec).Ingest(ingest));
    }
  };
  submit_jobs(opt.jobs_type1, "T1-", opt.type1_tuples_per_sec, opt.type1_skew);
  submit_jobs(opt.jobs_type2, "T2-", opt.type2_tuples_per_sec, opt.type2_skew);

  engine.RunFor(opt.duration);
  return engine.Summarize(opt.duration);
}

TokenScenarioResult RunTokenScenario(const TokenScenarioOptions& opt) {
  EngineOptions eo;
  eo.workers = opt.workers;
  eo.scheduler = SchedulerKind::kCameo;
  eo.policy = "TokenFair";
  eo.seed = opt.seed;
  SimEngine engine(eo);

  std::vector<QueryHandle> handles;
  for (std::size_t i = 0; i < opt.token_rates.size(); ++i) {
    // Appended, not "J" + ...: GCC 12 -O3 warns -Wrestrict on that.
    QuerySpec spec = MakeLatencySensitiveSpec(
        std::string("J").append(std::to_string(i + 1)));
    spec.sources = opt.sources_per_job;
    spec.aggs = 2;
    spec.token_rate_per_sec = opt.token_rates[i];
    spec.msgs_per_sec_per_source = opt.msgs_per_sec;
    // Keep per-message work large enough that the cluster saturates once all
    // jobs are active (the regime where token shares matter).
    spec.tuples_per_msg = opt.tuples_per_msg;

    // Unaligned steady offered load, staggered starts (job i at i*stagger).
    IngestSpec ingest;
    ingest.aligned = false;
    ingest.msgs_per_sec = opt.msgs_per_sec;
    ingest.tuples_per_msg = opt.tuples_per_msg;
    ingest.start = static_cast<SimTime>(i) * opt.stagger;
    ingest.end = opt.duration;
    handles.push_back(engine.Submit(AggregationQueryDef(spec).Ingest(ingest)));
  }

  engine.RunFor(opt.duration);
  TokenScenarioResult out;
  out.run = engine.Summarize(opt.duration);
  for (const QueryHandle& q : handles) {
    out.throughput.push_back(engine.cluster().latency().ProcessedBuckets(
        q.job(), kSecond, opt.duration));
  }
  return out;
}

ChurnScenarioResult RunChurnScenario(const ChurnScenarioOptions& opt) {
  SimEngine engine(opt.engine);

  for (int i = 0; i < opt.background_ba_jobs; ++i) {
    QuerySpec spec = MakeBulkAnalyticsSpec("BA" + std::to_string(i));
    spec.sources = opt.sources_per_job;
    spec.aggs = opt.aggs_per_job;
    spec.msgs_per_sec_per_source = opt.ba_msgs_per_sec;
    spec.tuples_per_msg = opt.ba_tuples_per_msg;

    IngestSpec ingest;
    ingest.kind = ToIngestKind(opt.ba_arrivals);
    ingest.msgs_per_sec = opt.ba_msgs_per_sec;
    ingest.tuples_per_msg = opt.ba_tuples_per_msg;
    ingest.end = opt.duration;
    ingest.pareto_alpha = opt.pareto_alpha;
    ingest.phase = static_cast<Duration>(i) * Millis(1);
    ingest.event_time_delay = Millis(50);
    engine.Submit(AggregationQueryDef(spec).Ingest(ingest));
  }

  // The churn script itself draws from its own RNG stream so adding a
  // tenant never perturbs the background workload's randomness.
  Rng churn_rng(opt.engine.seed * 9176 + 11);
  ChurnScenarioResult out;
  out.script = GenerateTenantChurn(opt.churn, churn_rng);
  for (const TenantInterval& ti : out.script.tenants) {
    QuerySpec spec = MakeLatencySensitiveSpec(
        std::string("T").append(std::to_string(ti.tenant)));
    spec.sources = opt.tenant_sources;
    spec.aggs = opt.tenant_aggs;
    spec.latency_constraint = opt.tenant_constraint;
    spec.msgs_per_sec_per_source = opt.tenant_msgs_per_sec;
    spec.tuples_per_msg = opt.tenant_tuples_per_msg;
    SimTime depart = std::min<SimTime>(ti.depart, opt.duration);
    // Batching clients close intervals at window boundaries regardless of
    // when the query registered, so the ingestion clock starts at the first
    // boundary after arrival (otherwise every window would trail its
    // trigger batch by up to a full window).
    SimTime aligned_start =
        ((ti.arrive + spec.window - 1) / spec.window) * spec.window;

    IngestSpec ingest;
    ingest.msgs_per_sec = spec.msgs_per_sec_per_source;
    ingest.tuples_per_msg = spec.tuples_per_msg;
    ingest.start = aligned_start;
    ingest.end = depart;
    ingest.phase = Millis(2) + (ti.tenant % 7) * Millis(3);
    ingest.event_time_delay = Millis(50);
    engine.Submit(ti.arrive, depart, AggregationQueryDef(spec).Ingest(ingest));
    ++out.tenants_added;
    if (ti.depart <= opt.duration) ++out.tenants_departed;
  }

  engine.RunFor(opt.duration);
  out.run = engine.Summarize(opt.duration);
  out.messages_purged = engine.cluster().messages_purged();
  return out;
}

KeyedScenarioResult RunKeyedScenario(const KeyedScenarioOptions& opt) {
  SimEngine engine(opt.engine);

  KeySamplerFactory sampler;
  switch (opt.dist) {
    case KeyDistribution::kUniform:
      sampler = [n = opt.num_keys](int) {
        return std::make_unique<UniformKeys>(n);
      };
      break;
    case KeyDistribution::kZipf:
      sampler = [n = opt.num_keys, s = opt.zipf_s](int) {
        return std::make_unique<ZipfKeys>(n, s);
      };
      break;
    case KeyDistribution::kGrid: {
      // The walker population is split across the source replicas (each
      // replica walks its own cohort on the shared grid).
      const int per_replica = std::max(1, opt.grid_entities / opt.sources);
      sampler = [w = opt.grid_width, h = opt.grid_height,
                 e = per_replica](int) {
        return std::make_unique<GridKeys>(w, h, e);
      };
      break;
    }
  }

  IngestSpec ingest;
  ingest.msgs_per_sec = opt.msgs_per_sec;
  ingest.tuples_per_msg = opt.tuples_per_msg;
  ingest.end = opt.ingest_end > 0 ? opt.ingest_end : opt.duration;
  ingest.event_time_delay = Millis(50);
  ingest.key_sampler = std::move(sampler);

  QueryDef def =
      Query("KEYED")
          .Constraint(opt.constraint)
          .EventTime()
          .Source(opt.sources)
          .KeyBy(opt.splits)
          .KeyedCounter(opt.counters, WindowSpec::Tumbling(opt.window),
                        {Micros(100), opt.counter_per_tuple, 0.05})
          .KeyBy()
          .WindowAgg(opt.merge_replicas, WindowSpec::Tumbling(opt.window),
                     {Micros(60), 40, 0.05}, AggKind::kSum, /*per_key=*/true,
                     "merge")
          .Shuffle()
          .Sink()
          .Ingest(std::move(ingest));
  QueryHandle q = engine.Submit(def);

  engine.RunFor(opt.duration);
  KeyedScenarioResult out;
  out.run = engine.Summarize(opt.duration);
  const shard::ShardRuntime& runtime = engine.cluster().shard_runtime();
  const shard::TransportStats ts = runtime.transport_stats();
  out.frames_sent = static_cast<std::int64_t>(ts.frames_sent);
  out.frames_received = static_cast<std::int64_t>(ts.frames_received);
  out.wire_bytes = static_cast<std::int64_t>(ts.bytes_sent);
  out.transport = ts;
  for (int s = 0; s < runtime.num_shards(); ++s) {
    out.shard_sched.push_back(runtime.scheduler(s).stats());
  }
  DataflowGraph& g = engine.graph();
  for (StageId sid : q.handles.stages) {
    for (OperatorId id : g.stage(sid).operators) {
      auto* op = dynamic_cast<KeyedCounterOp*>(&g.Get(id));
      if (op == nullptr) continue;
      out.rows_seen += op->rows_seen();
      out.count_emitted += op->count_emitted();
      out.late_dropped += op->late_dropped();
      out.keys_live += static_cast<std::int64_t>(op->live_keys());
      out.slate_rehashes += static_cast<std::int64_t>(op->store().rehashes());
    }
  }
  return out;
}

}  // namespace cameo
