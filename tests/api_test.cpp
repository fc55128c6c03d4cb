// Frontend-API suite: QueryDef -> graph compilation invariants, the Engine
// facade's submit/remove parity across both backends, and the equivalence
// proof that the fluent path is a pure API layer -- a scenario expressed
// through QueryDef/SimEngine produces the exact same RunResult as the
// pre-API hand-wired graph + Cluster + AddIngestion sequence for a fixed
// seed. Also the options-validation death tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/sim_engine.h"
#include "api/thread_engine.h"
#include "bench_util/scenarios.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/window_agg.h"
#include "sim/driver.h"
#include "workload/keyed.h"
#include "workload/tenants.h"

namespace cameo {
namespace {

QuerySpec SmallSpec(const std::string& name) {
  QuerySpec spec = MakeLatencySensitiveSpec(name);
  spec.sources = 1;
  spec.aggs = 1;
  return spec;
}

// ---------------- QueryDef -> graph compilation ----------------

TEST(QueryDefTest, CompilesAggregationPipeline) {
  QueryDef def = Query("q")
                     .Constraint(Millis(500))
                     .EventTime()
                     .TokenRate(3)
                     .Source(4)
                     .Shuffle()
                     .WindowAgg(2, WindowSpec::Sliding(Seconds(2), Seconds(1)),
                                {Micros(300), 1500, 0.05})
                     .Shuffle()
                     .WindowAgg(1, WindowSpec::Sliding(Seconds(2), Seconds(1)),
                                {Micros(500), Micros(5), 0.05}, AggKind::kSum,
                                false, "final")
                     .OneToOne()
                     .Sink();
  ASSERT_EQ(def.stages().size(), 4u);

  DataflowGraph g;
  JobHandles h = def.Build(g);
  EXPECT_EQ(h.stages.size(), 4u);
  EXPECT_FALSE(h.source_right.valid());

  const JobSpec& job = g.job(h.job);
  EXPECT_EQ(job.name, "q");
  EXPECT_EQ(job.latency_constraint, Millis(500));
  EXPECT_EQ(job.time_domain, TimeDomain::kEventTime);
  EXPECT_EQ(job.token_rate_per_sec, 3);
  // Output attribution derives from the last windowed stage.
  EXPECT_EQ(job.output_window, Seconds(2));
  EXPECT_EQ(job.output_slide, Seconds(1));

  // 4 sources + 2 pre-aggs + 1 final + 1 sink.
  EXPECT_EQ(g.OperatorsOf(h.job).size(), 8u);
  const StageInfo& src = g.stage(h.source);
  EXPECT_EQ(src.parallelism, 4);
  EXPECT_EQ(src.name, "q/src");
  ASSERT_EQ(src.downstream.size(), 1u);
  EXPECT_EQ(src.downstream[0], h.stages[1]);
  EXPECT_EQ(src.partition[0], Partition::kShard);
  const StageInfo& fin = g.stage(h.stages[2]);
  ASSERT_EQ(fin.downstream.size(), 1u);
  EXPECT_EQ(fin.partition[0], Partition::kOneToOne);
  const StageInfo& sink = g.stage(h.sink);
  EXPECT_EQ(sink.name, "q/sink");
  EXPECT_TRUE(sink.downstream.empty());
  // Channel counts were finalized: the pre-agg replica hears all 4 sources
  // (kShard onto parallelism 2 -> 2 channels each).
  auto* agg = dynamic_cast<WindowAggOp*>(&g.Get(g.stage(h.stages[1]).operators[0]));
  ASSERT_NE(agg, nullptr);
}

TEST(QueryDefTest, FluentRosterStagesCompileToConfiguredKernels) {
  QueryDef def = Query("roster")
                     .Source(2)
                     .Shuffle()
                     .TopK(1, WindowSpec::Tumbling(Seconds(1)),
                           {Micros(300), 1500, 0.05}, /*k=*/5)
                     .Shuffle()
                     .Percentile(1, WindowSpec::Tumbling(Seconds(1)),
                                 {Micros(300), 1500, 0.05}, /*q=*/99.0)
                     .Shuffle()
                     .Ohlc(1, WindowSpec::Tumbling(Seconds(1)),
                           {Micros(300), 1500, 0.05})
                     .Shuffle()
                     .SessionAgg(1, Seconds(2), {Micros(300), 1500, 0.05})
                     .OneToOne()
                     .Sink();
  ASSERT_EQ(def.stages().size(), 6u);
  EXPECT_EQ(def.stages()[1].agg, AggKind::kTopK);
  EXPECT_EQ(def.stages()[1].agg_params.top_k, 5);
  EXPECT_EQ(def.stages()[2].agg, AggKind::kPercentile);
  EXPECT_DOUBLE_EQ(def.stages()[2].agg_params.quantile, 99.0);
  EXPECT_EQ(def.stages()[3].agg, AggKind::kOhlc);
  EXPECT_TRUE(def.stages()[4].window.session());
  EXPECT_EQ(def.stages()[4].window.gap, Seconds(2));

  DataflowGraph g;
  JobHandles h = def.Build(g);
  auto* topk = dynamic_cast<WindowAggOp*>(
      &g.Get(g.stage(h.stages[1]).operators[0]));
  ASSERT_NE(topk, nullptr);
  EXPECT_EQ(topk->kernel().kind(), AggKind::kTopK);
  EXPECT_EQ(topk->kernel().params().top_k, 5);
  auto* pct = dynamic_cast<WindowAggOp*>(
      &g.Get(g.stage(h.stages[2]).operators[0]));
  ASSERT_NE(pct, nullptr);
  EXPECT_DOUBLE_EQ(pct->kernel().params().quantile, 99.0);
  auto* session = dynamic_cast<WindowAggOp*>(
      &g.Get(g.stage(h.stages[4]).operators[0]));
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->window().session());
}

TEST(QueryDefTest, RosterQueryRunsEndToEndInSim) {
  // The whole roster executes against the sim backend: the session stage at
  // the tail still delivers sink output (sessions close via watermarks).
  QueryDef def = Query("r")
                     .Constraint(Seconds(10))
                     .Source(2, {Micros(100), 0, 0.0})
                     .Shuffle()
                     .TopK(1, WindowSpec::Tumbling(Seconds(1)),
                           {Micros(200), 0, 0.0}, 3)
                     .OneToOne()
                     .Sink()
                     .IngestConstant(2.0, 100);
  EngineOptions opt;
  opt.workers = 1;
  SimEngine engine(opt);
  QueryHandle q = engine.Submit(def);
  engine.RunFor(Seconds(10));
  EXPECT_GT(engine.Latency(q).count(), 0u)
      << "windows fired through the TopK stage";
}

TEST(QueryDefTest, CompilesJoinWithTwoSourceGroups) {
  QuerySpec spec = MakeIpqSpec(4);
  spec.sources = 2;
  spec.aggs = 2;
  DataflowGraph g;
  JobHandles h = JoinQueryDef(spec).Build(g);

  ASSERT_EQ(h.stages.size(), 5u);
  ASSERT_TRUE(h.source_right.valid());
  StageId join = h.stages[2];
  // Both source groups feed the join, in definition order.
  ASSERT_EQ(g.stage(h.source).downstream.size(), 1u);
  EXPECT_EQ(g.stage(h.source).downstream[0], join);
  ASSERT_EQ(g.stage(h.source_right).downstream.size(), 1u);
  EXPECT_EQ(g.stage(h.source_right).downstream[0], join);
  EXPECT_EQ(g.stage(join).upstream.size(), 2u);
  // Join time domain and constraint landed on the job spec.
  EXPECT_EQ(g.job(h.job).latency_constraint, spec.latency_constraint);
  EXPECT_EQ(g.job(h.job).output_window, spec.window);
}

TEST(QueryDefTest, BuilderCallbackMatchesDirectBuild) {
  QueryDef def = AggregationQueryDef(SmallSpec("cb"));
  DataflowGraph direct;
  JobHandles built = def.Build(direct);

  DataflowGraph via_builder;
  JobHandles spliced = via_builder.AddQuery(def.Builder());
  EXPECT_EQ(spliced.stages.size(), built.stages.size());
  EXPECT_EQ(via_builder.OperatorsOf(spliced.job).size(),
            direct.OperatorsOf(built.job).size());
  EXPECT_EQ(via_builder.job(spliced.job).name, direct.job(built.job).name);
}

TEST(QueryDefTest, SpecBuildersProduceIdenticalTopology) {
  // The workload builders are now QueryDef compilers; their graphs must
  // carry the same shapes the legacy hand-wired builders produced.
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  DataflowGraph g;
  JobHandles h = BuildAggregationJob(g, spec);
  ASSERT_EQ(h.stages.size(), 4u);
  EXPECT_EQ(g.stage(h.stages[0]).name, "LS0/src");
  EXPECT_EQ(g.stage(h.stages[1]).name, "LS0/agg");
  EXPECT_EQ(g.stage(h.stages[2]).name, "LS0/final");
  EXPECT_EQ(g.stage(h.stages[3]).name, "LS0/sink");
  EXPECT_EQ(g.stage(h.stages[0]).parallelism, spec.sources);
  EXPECT_EQ(g.stage(h.stages[1]).parallelism, spec.aggs);
  EXPECT_EQ(g.stage(h.stages[2]).parallelism, 1);
  EXPECT_EQ(g.job(h.job).output_window, spec.window);
  EXPECT_EQ(g.job(h.job).output_slide, spec.slide);
}

// ---------------- option validation at the front door ----------------

TEST(ApiDeathTest, UnknownPolicyFailsFastAtEngineConstruction) {
  EngineOptions opt;
  opt.policy = "LIFO";
  // The death message must list the live roster — built here from
  // ValidPolicyNames() so a registry addition can never stale this test.
  std::string expected = "valid policies:";
  for (const std::string& name : ValidPolicyNames()) expected += " " + name;
  EXPECT_DEATH(SimEngine{opt}, expected);
}

// Both constructors that consume EngineOptions validate them up front, so a
// bad value dies naming its field instead of deep inside the event queue.
TEST(ApiDeathTest, InvalidOptionsDieNamingTheField) {
  struct Case {
    const char* field;
    void (*set)(EngineOptions&);
  };
  const Case cases[] = {
      {"workers", [](EngineOptions& o) { o.workers = 0; }},
      {"shards", [](EngineOptions& o) { o.shards = 0; }},
      {"switch_cost", [](EngineOptions& o) { o.sim.switch_cost = -1; }},
      {"straggler_prob", [](EngineOptions& o) { o.sim.straggler_prob = -0.1; }},
      {"straggler_prob", [](EngineOptions& o) { o.sim.straggler_prob = 1.5; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    EngineOptions o;
    c.set(o);
    EXPECT_DEATH(SimEngine{o}, c.field);
    EXPECT_DEATH(Cluster(o, DataflowGraph{}), c.field);
  }
}

TEST(ApiDeathTest, ThreadEngineRejectsShards) {
  EngineOptions opt;
  opt.shards = 2;
  EXPECT_DEATH(ThreadEngine{opt}, "cannot honour EngineOptions::shards > 1");
}

// ---------------- SimEngine vs ThreadEngine parity ----------------

TEST(EngineParityTest, SubmitAndRemoveBehaveIdentically) {
  EngineOptions opt;
  opt.workers = 2;
  opt.wallclock.emulate_cost = false;

  SimEngine sim(opt);
  ThreadEngine thread(opt);
  for (Engine* e : {static_cast<Engine*>(&sim), static_cast<Engine*>(&thread)}) {
    QueryHandle a = e->Submit(AggregationQueryDef(SmallSpec("a")));
    QueryHandle b = e->Submit(AggregationQueryDef(SmallSpec("b")));
    ASSERT_TRUE(a.valid() && b.valid()) << e->backend();
    EXPECT_EQ(e->graph().live_job_count(), 2u) << e->backend();
    EXPECT_EQ(e->graph().OperatorsOf(a.job()).size(), 4u) << e->backend();
    EXPECT_EQ(e->graph().OperatorsOf(b.job()).size(), 4u) << e->backend();

    // Removal of a staged query before the run starts is legal on both
    // backends (the engine materializes/starts on demand).
    e->Remove(a);
    EXPECT_FALSE(e->graph().query_live(a.job())) << e->backend();
    EXPECT_TRUE(e->graph().query_live(b.job())) << e->backend();
    EXPECT_EQ(e->graph().live_job_count(), 1u) << e->backend();

    e->RunFor(Millis(10));
    e->Remove(b);
    EXPECT_FALSE(e->graph().query_live(b.job())) << e->backend();
    EXPECT_EQ(e->graph().live_job_count(), 0u) << e->backend();
  }
  thread.Stop();
}

TEST(EngineParityTest, FiniteInputYieldsIdenticalBooks) {
  // Both backends run the same per-message step, so a finite input must
  // leave identical books: windows emitted at the sink, tuples reaching it,
  // and tuples the source stage processed.
  EngineOptions opt;
  opt.workers = 2;
  opt.wallclock.emulate_cost = false;
  opt.wallclock.time_scale = 0.05;

  QuerySpec spec = SmallSpec("books");
  spec.sources = 2;
  IngestSpec in;
  in.msgs_per_sec = 4.0;
  in.tuples_per_msg = 100;
  in.end = Seconds(3);
  in.event_time_delay = Millis(50);
  const QueryDef def = AggregationQueryDef(spec).Ingest(in);

  SimEngine sim(opt);
  const JobId sim_job = sim.Submit(def).job();
  sim.RunFor(Seconds(4));
  ThreadEngine thread(opt);
  const JobId thread_job = thread.Submit(def).job();
  thread.RunFor(Seconds(4));
  thread.Stop();

  const LatencyRecorder& s = sim.cluster().latency();
  const ShardedLatencyRecorder& t = thread.runtime().latency();
  EXPECT_GT(s.processed(sim_job), 0);
  EXPECT_EQ(s.outputs(sim_job), t.outputs(thread_job));
  EXPECT_EQ(s.sink_tuples(sim_job), t.sink_tuples(thread_job));
  EXPECT_EQ(s.processed(sim_job), t.processed(thread_job));
}

TEST(EngineParityTest, KeyedSourcesBookPreInvokeRows) {
  // A source forwards a columnar batch by move, leaving the message's batch
  // empty, so the step books processed volume from the rows it counted
  // before Invoke. Keyed ingestion must book exactly what the same arrivals
  // book as synthetic tuple counts, on both backends.
  EngineOptions opt;
  opt.workers = 2;
  opt.wallclock.emulate_cost = false;
  opt.wallclock.time_scale = 0.05;

  QuerySpec spec = SmallSpec("keyed");
  spec.sources = 2;
  IngestSpec in;
  in.msgs_per_sec = 4.0;
  in.tuples_per_msg = 100;
  in.end = Seconds(3);
  in.event_time_delay = Millis(50);
  const QueryDef plain_def = AggregationQueryDef(spec).Ingest(in);
  QueryDef keyed_def = AggregationQueryDef(spec).Ingest(in);
  keyed_def.Keys([](int) { return std::make_unique<UniformKeys>(64); });

  SimEngine plain(opt);
  const JobId plain_job = plain.Submit(plain_def).job();
  plain.RunFor(Seconds(4));
  SimEngine sim(opt);
  const JobId sim_job = sim.Submit(keyed_def).job();
  sim.RunFor(Seconds(4));
  ThreadEngine thread(opt);
  const JobId thread_job = thread.Submit(keyed_def).job();
  thread.RunFor(Seconds(4));
  thread.Stop();

  const std::int64_t want = plain.cluster().latency().processed(plain_job);
  EXPECT_GT(want, 0);
  EXPECT_EQ(want % in.tuples_per_msg, 0);
  EXPECT_EQ(sim.cluster().latency().processed(sim_job), want);
  EXPECT_EQ(thread.runtime().latency().processed(thread_job), want);
}

TEST(SimEngineTest, LiveSubmitJoinsAtCurrentVirtualTime) {
  EngineOptions opt;
  opt.workers = 1;
  SimEngine engine(opt);

  IngestSpec steady;
  steady.msgs_per_sec = 1;
  steady.tuples_per_msg = 100;
  steady.end = Seconds(6);
  steady.event_time_delay = Millis(50);
  engine.Submit(AggregationQueryDef(SmallSpec("static")).Ingest(steady));
  engine.RunFor(Seconds(2));

  IngestSpec late_in = steady;
  late_in.start = Seconds(2);
  QueryHandle late =
      engine.Submit(AggregationQueryDef(SmallSpec("late")).Ingest(late_in));
  EXPECT_FALSE(engine.ScheduledJob(late).has_value()) << "not built yet";

  // A live submission without any IngestSpec is legal too: the query
  // joins idle (traffic could be scripted later via At()).
  QueryHandle bare = engine.Submit(AggregationQueryDef(SmallSpec("bare")));

  engine.RunFor(Seconds(2));
  auto job = engine.ScheduledJob(late);
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(engine.graph().query_live(*job));
  auto bare_job = engine.ScheduledJob(bare);
  ASSERT_TRUE(bare_job.has_value());
  EXPECT_TRUE(engine.graph().query_live(*bare_job));
  engine.Remove(late);
  EXPECT_FALSE(engine.graph().query_live(*job));
  // Conservation survives the mid-run removal.
  engine.RunFor(Seconds(2));
  SchedulerStats stats = engine.sched_stats();
  EXPECT_EQ(stats.enqueued, stats.dispatched + stats.purged);
}

TEST(ThreadEngineTest, IngestSpecBecomesProducerTraffic) {
  // The wall-clock engine lowers an IngestSpec to external producer
  // threads; 3 virtual seconds compressed 20x must close windows at the
  // sink exactly like hand-driven Ingest calls would.
  EngineOptions opt;
  opt.workers = 2;
  opt.wallclock.emulate_cost = false;
  opt.wallclock.time_scale = 0.05;
  ThreadEngine engine(opt);

  QuerySpec spec = SmallSpec("produced");
  spec.sources = 2;
  QueryDef def = AggregationQueryDef(spec).IngestConstant(
      4.0, 100, /*event_time_delay=*/Millis(50));
  QueryHandle q = engine.Submit(def);
  engine.RunFor(Seconds(3));
  engine.Stop();

  EXPECT_GE(engine.runtime().latency().outputs(q.job()), 1u);
  SchedulerStats stats = engine.sched_stats();
  EXPECT_EQ(stats.enqueued, stats.dispatched);
}

TEST(ThreadEngineTest, TokenRateQueryCarriesTokensUnderTokenFair) {
  // A TokenRate query's source messages carry tokens on the wall clock too,
  // as they do in the simulator: 4 per one-second interval, spaced a quarter
  // second apart in tag order, none once the budget is spent (that traffic
  // sinks to TokenFair's floor). The workers are stopped first, so the
  // ingested messages wait in the scheduler for the test to read.
  EngineOptions opt;
  opt.workers = 1;
  opt.policy = "TokenFair";
  opt.wallclock.emulate_cost = false;
  ThreadEngine engine(opt);
  QuerySpec spec = SmallSpec("tokened");
  spec.token_rate_per_sec = 4;
  QueryHandle q = engine.Submit(AggregationQueryDef(spec));
  engine.Start();
  engine.Stop();

  const OperatorId source = engine.graph().stage(q.handles.source).operators[0];
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(engine.Ingest(source, 1));
  Scheduler& sched = engine.runtime().scheduler();
  std::vector<Message> out;
  while (out.size() < 6) {
    ASSERT_GT(sched.DequeueBatch(WorkerId{0}, 0, 16, out), 0u);
    sched.OnComplete(source, WorkerId{0}, 0);
  }
  std::sort(out.begin(), out.end(), [](const Message& a, const Message& b) {
    return a.id.value < b.id.value;
  });
  // The bucket refills when the clock crosses into the next interval.
  std::int64_t interval = -1;
  std::int64_t used = 0;
  for (Message& m : out) {
    if (m.pc.token_interval != interval) {
      interval = m.pc.token_interval;
      used = 0;
    }
    SCOPED_TRACE(used);
    EXPECT_EQ(m.pc.has_token, used < 4);
    EXPECT_EQ(m.pc.pri_global, used < 4 ? interval * kSecond +
                                              used * (kSecond / 4)
                                        : kPriorityFloor);
    ++used;
    m.batch.Recycle();
  }
}

// ---------------- equivalence: fluent path == hand-wired path ----------------

/// Frozen copy of the pre-API BuildAggregationJob: raw AddJob/AddStage/
/// Connect wiring, no QueryDef involved. The equivalence test below proves
/// the fluent path compiles to a bit-identical execution.
JobHandles HandWiredAggregation(DataflowGraph& g, const QuerySpec& spec) {
  JobSpec job;
  job.name = spec.name;
  job.latency_constraint = spec.latency_constraint;
  job.time_domain = spec.domain;
  job.output_window = spec.window;
  job.output_slide = spec.slide;
  job.token_rate_per_sec = spec.token_rate_per_sec;
  JobHandles h;
  h.job = g.AddJob(job);

  WindowSpec window{spec.window, spec.slide};
  h.source = g.AddStage(h.job, spec.name + "/src", spec.sources, [&](int) {
    return std::make_unique<SourceOp>(spec.name + "/src", spec.source_cost);
  });
  StageId pre = g.AddStage(h.job, spec.name + "/agg", spec.aggs, [&](int) {
    return std::make_unique<WindowAggOp>(spec.name + "/agg", window,
                                         spec.agg_cost, AggKind::kSum,
                                         spec.per_key);
  });
  StageId fin = g.AddStage(h.job, spec.name + "/final", 1, [&](int) {
    return std::make_unique<WindowAggOp>(spec.name + "/final", window,
                                         spec.final_cost, AggKind::kSum,
                                         spec.per_key);
  });
  h.sink = g.AddStage(h.job, spec.name + "/sink", 1, [&](int) {
    return std::make_unique<SinkOp>(spec.name + "/sink", spec.sink_cost);
  });

  g.Connect(h.source, pre, Partition::kShard);
  g.Connect(pre, fin, Partition::kShard);
  g.Connect(fin, h.sink, Partition::kOneToOne);
  h.stages = {h.source, pre, fin, h.sink};
  FinalizeChannels(g, h.job);
  return h;
}

TEST(EquivalenceTest, FluentScenarioMatchesHandWiredClusterRun) {
  MultiTenantOptions opt;
  opt.ls_jobs = 1;
  opt.ba_jobs = 1;
  opt.engine.workers = 2;
  opt.duration = Seconds(8);
  opt.ba_msgs_per_sec = 10;
  opt.engine.seed = 5;
  RunResult fluent = RunMultiTenant(opt);

  // The exact pre-API sequence: build graph, construct cluster, attach
  // ingestion, run, summarize.
  DataflowGraph graph;
  std::vector<JobHandles> handles;
  {
    QuerySpec ls = MakeLatencySensitiveSpec("LS0");
    ls.sources = opt.sources_per_job;
    ls.aggs = opt.aggs_per_job;
    ls.msgs_per_sec_per_source = opt.ls_msgs_per_sec;
    ls.tuples_per_msg = opt.ls_tuples_per_msg;
    handles.push_back(HandWiredAggregation(graph, ls));
  }
  {
    QuerySpec ba = MakeBulkAnalyticsSpec("BA0");
    ba.sources = opt.sources_per_job;
    ba.aggs = opt.aggs_per_job;
    ba.msgs_per_sec_per_source = opt.ba_msgs_per_sec;
    ba.tuples_per_msg = opt.ba_tuples_per_msg;
    handles.push_back(HandWiredAggregation(graph, ba));
  }

  Cluster cluster(opt.engine, std::move(graph));

  for (std::size_t i = 0; i < handles.size(); ++i) {
    double rate = i == 0 ? opt.ls_msgs_per_sec : opt.ba_msgs_per_sec;
    std::int64_t tuples = i == 0 ? opt.ls_tuples_per_msg : opt.ba_tuples_per_msg;
    Duration base_phase = static_cast<Duration>(i) * Millis(1);
    SimTime end = opt.duration;
    cluster.AddIngestion(
        handles[i].source,
        [=](int replica) {
          Duration phase = base_phase + Millis(2) + replica * Millis(9);
          return std::make_unique<ConstantRate>(rate, tuples, 0, end, phase,
                                                /*aligned=*/true);
        },
        opt.event_time_delay);
  }
  cluster.Run(opt.duration);
  RunResult legacy = SummarizeRun(cluster, opt.duration);

  EXPECT_EQ(fluent.messages, legacy.messages);
  EXPECT_EQ(fluent.sched.enqueued, legacy.sched.enqueued);
  EXPECT_EQ(fluent.sched.dispatched, legacy.sched.dispatched);
  EXPECT_EQ(fluent.sched.operator_swaps, legacy.sched.operator_swaps);
  ASSERT_EQ(fluent.jobs.size(), legacy.jobs.size());
  for (std::size_t i = 0; i < legacy.jobs.size(); ++i) {
    EXPECT_EQ(fluent.jobs[i].name, legacy.jobs[i].name);
    EXPECT_EQ(fluent.jobs[i].outputs, legacy.jobs[i].outputs);
    EXPECT_DOUBLE_EQ(fluent.jobs[i].median_ms, legacy.jobs[i].median_ms);
    EXPECT_DOUBLE_EQ(fluent.jobs[i].p99_ms, legacy.jobs[i].p99_ms);
    EXPECT_DOUBLE_EQ(fluent.jobs[i].max_ms, legacy.jobs[i].max_ms);
    EXPECT_DOUBLE_EQ(fluent.jobs[i].success_rate, legacy.jobs[i].success_rate);
    EXPECT_DOUBLE_EQ(fluent.jobs[i].throughput_tuples_per_sec,
                     legacy.jobs[i].throughput_tuples_per_sec);
  }
}

}  // namespace
}  // namespace cameo
