// Concurrency hammer tests for the sharded scheduling control plane:
// external threads pound Ingest / Enqueue while workers drain, and every
// invariant the lock-free mailbox protocol promises is checked under real
// interleavings -- no lost messages, exact tuple conservation, operator
// exclusivity, and a clean Drain(). Run them under TSan with
// -DCAMEO_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "ops/sink.h"
#include "ops/source.h"
#include "runtime/thread_runtime.h"
#include "sched/scheduler.h"
#include "shard/shard_runtime.h"
#include "workload/tenants.h"

namespace cameo {
namespace {

constexpr SchedulerKind kAllKinds[] = {SchedulerKind::kCameo,
                                       SchedulerKind::kFifo,
                                       SchedulerKind::kOrleans,
                                       SchedulerKind::kSlot};

// A flat source -> sink job: every ingested tuple reaches the sink exactly
// once, so sink counts give exact conservation.
struct FlatJob {
  JobId job;
  std::vector<OperatorId> sources;
  OperatorId sink;
};

FlatJob BuildFlatJob(DataflowGraph& g, int sources) {
  JobSpec spec;
  spec.name = "flat";
  spec.latency_constraint = Seconds(10);
  spec.time_domain = TimeDomain::kEventTime;
  spec.output_window = 0;
  spec.output_slide = 0;  // per-message output
  JobId job = g.AddJob(spec);
  StageId src = g.AddStage(job, "src", sources, [](int r) {
    return std::make_unique<SourceOp>("src" + std::to_string(r), CostModel{});
  });
  StageId sink = g.AddStage(job, "sink", 1, [](int) {
    return std::make_unique<SinkOp>("sink", CostModel{});
  });
  g.Connect(src, sink, Partition::kShard);
  return FlatJob{job, g.stage(src).operators, g.stage(sink).operators[0]};
}

TEST(ConcurrencyTest, IngestHammerConservesTuplesAcrossSchedulers) {
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 400;
  constexpr std::int64_t kTuplesPerBatch = 7;
  for (SchedulerKind kind : kAllKinds) {
    DataflowGraph graph;
    FlatJob fj = BuildFlatJob(graph, kThreads);
    RuntimeConfig cfg;
    cfg.num_workers = 4;
    cfg.scheduler = kind;
    cfg.emulate_cost = false;
    ThreadRuntime rt(cfg, std::move(graph));
    rt.Start();

    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      // Each thread hammers its own source replica; progress order per
      // channel is the runtime's job.
      producers.emplace_back([&rt, &fj, t] {
        for (int i = 0; i < kBatchesPerThread; ++i) {
          rt.Ingest(fj.sources[static_cast<std::size_t>(t)], kTuplesPerBatch);
        }
      });
    }
    for (std::thread& t : producers) t.join();
    rt.Drain();

    const std::int64_t expected =
        static_cast<std::int64_t>(kThreads) * kBatchesPerThread *
        kTuplesPerBatch;
    auto& sink = dynamic_cast<SinkOp&>(rt.graph().Get(fj.sink));
    EXPECT_EQ(sink.tuples(), expected) << ToString(kind);
    EXPECT_EQ(sink.outputs(),
              static_cast<std::uint64_t>(kThreads) * kBatchesPerThread)
        << ToString(kind);
    EXPECT_EQ(rt.scheduler().pending(), 0u) << ToString(kind);
    SchedulerStats stats = rt.scheduler().stats();
    EXPECT_EQ(stats.enqueued, stats.dispatched) << ToString(kind);
    rt.Stop();
  }
}

TEST(ConcurrencyTest, ConcurrentIngestIntoSharedSourcesStaysOrdered) {
  // Many threads hitting the *same* sources: per-channel progress must stay
  // monotone (no CHECK trips in the windowed pipeline) and nothing is lost.
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 2;
  spec.aggs = 2;
  spec.domain = TimeDomain::kEventTime;
  JobHandles h = BuildAggregationJob(graph, spec);
  std::vector<OperatorId> sources = graph.stage(h.source).operators;

  RuntimeConfig cfg;
  cfg.num_workers = 4;
  cfg.emulate_cost = false;
  ThreadRuntime rt(cfg, std::move(graph));
  rt.Start();
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&rt, &sources, t] {
      for (int k = 1; k <= 200; ++k) {
        rt.Ingest(sources[static_cast<std::size_t>(t) % sources.size()], 10,
                  Millis(5 * k + t));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  rt.Drain();
  EXPECT_EQ(rt.scheduler().pending(), 0u);
  SchedulerStats stats = rt.scheduler().stats();
  EXPECT_EQ(stats.enqueued, stats.dispatched);
  EXPECT_GT(rt.latency().outputs(h.job), 0u);
  rt.Stop();
}

TEST(ConcurrencyTest, DrainIsCleanWhileProducersKeepArriving) {
  // Drain() racing live ingestion must return only at a true quiescent
  // point: at return, everything enqueued-so-far has been dispatched.
  DataflowGraph graph;
  FlatJob fj = BuildFlatJob(graph, 2);
  RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.emulate_cost = false;
  ThreadRuntime rt(cfg, std::move(graph));
  rt.Start();
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < 500; ++i) rt.Ingest(fj.sources[0], 1);
    done.store(true);
  });
  while (!done.load()) {
    rt.Drain();  // repeatedly drain mid-stream
  }
  producer.join();
  rt.Drain();
  EXPECT_EQ(rt.scheduler().pending(), 0u);
  auto& sink = dynamic_cast<SinkOp&>(rt.graph().Get(fj.sink));
  EXPECT_EQ(sink.tuples(), 500);
  rt.Stop();
}

// Raw scheduler hammer: producers enqueue while consumer threads dispatch.
// Checks conservation (every message id exactly once), operator exclusivity
// under real parallelism, and an empty scheduler at the end.
class SchedulerHammer : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerHammer, ConservesAndNeverDoubleActivates) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  constexpr int kOperators = 17;
  constexpr std::int64_t kTotal =
      static_cast<std::int64_t>(kProducers) * kPerProducer;

  SchedulerConfig cfg;
  cfg.quantum = Micros(10);
  auto sched = MakeScheduler(GetParam(), kConsumers, cfg);

  std::atomic<std::int64_t> dispatched{0};
  std::vector<std::atomic<int>> active(kOperators);
  std::atomic<bool> exclusivity_ok{true};
  std::vector<std::atomic<std::uint8_t>> seen(
      static_cast<std::size_t>(kTotal));

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::int64_t id = static_cast<std::int64_t>(p) * kPerProducer + i;
        Message m;
        m.id = MessageId{id};
        m.target = OperatorId{id % kOperators};
        m.pc.id = m.id;
        m.pc.pri_global = (id * 7919) % 1000;
        m.pc.pri_local = id;
        m.batch = EventBatch::Synthetic(1, i + 1);
        sched->Enqueue(std::move(m), WorkerId{}, i);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      WorkerId w{c};
      while (dispatched.load(std::memory_order_relaxed) < kTotal) {
        auto m = sched->Dequeue(w, dispatched.load(std::memory_order_relaxed));
        if (!m.has_value()) {
          std::this_thread::yield();
          continue;
        }
        auto op = static_cast<std::size_t>(m->target.value);
        if (active[op].fetch_add(1, std::memory_order_acq_rel) != 0) {
          exclusivity_ok.store(false);  // two workers inside one operator
        }
        seen[static_cast<std::size_t>(m->id.value)].fetch_add(1);
        active[op].fetch_sub(1, std::memory_order_acq_rel);
        sched->OnComplete(m->target, w, 0);
        dispatched.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(exclusivity_ok.load());
  EXPECT_EQ(dispatched.load(), kTotal);
  EXPECT_EQ(sched->pending(), 0u);
  for (std::int64_t id = 0; id < kTotal; ++id) {
    ASSERT_EQ(seen[static_cast<std::size_t>(id)].load(), 1)
        << "message " << id << " lost or duplicated";
  }
  SchedulerStats stats = sched->stats();
  EXPECT_EQ(stats.enqueued, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.dispatched, static_cast<std::uint64_t>(kTotal));
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerHammer,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) { return ToString(info.param); });

// ---- Query churn under live ingest ----

// Builds a single-source flat query; used as the churned tenant shape.
JobHandles BuildChurnQuery(DataflowGraph& g, int serial) {
  JobSpec spec;
  spec.name = "churn" + std::to_string(serial);
  spec.latency_constraint = Seconds(10);
  spec.time_domain = TimeDomain::kEventTime;
  JobId job = g.AddJob(spec);
  StageId src = g.AddStage(job, "src", 1, [](int) {
    return std::make_unique<SourceOp>("csrc", CostModel{});
  });
  StageId sink = g.AddStage(job, "sink", 1, [](int) {
    return std::make_unique<SinkOp>("csink", CostModel{});
  });
  g.Connect(src, sink, Partition::kShard);
  return {.job = job, .source = src, .sink = sink, .stages = {},
          .source_right = {}};
}

// The churn hammer: N producer threads ingest into a static job (exact
// conservation anchor) and into whatever churned query is currently live,
// while a mutator thread hot-adds/removes >= 100 queries and grows the
// worker pool once mid-run. Every message accepted into a churned query
// must be executed before RemoveQuery returns (graceful removal), every
// rejected Ingest must leave no trace, and the static job must lose nothing.
TEST(ConcurrencyTest, ChurnHammerAddRemoveUnderLiveIngest) {
  constexpr int kProducers = 3;
  constexpr int kCycles = 110;
  constexpr std::int64_t kTuples = 3;
  constexpr int kMutatorBatches = 5;

  for (SchedulerKind kind : {SchedulerKind::kCameo, SchedulerKind::kSlot}) {
    DataflowGraph graph;
    FlatJob fj = BuildFlatJob(graph, kProducers);
    RuntimeConfig cfg;
    cfg.num_workers = 3;
    cfg.scheduler = kind;
    cfg.emulate_cost = false;
    ThreadRuntime rt(cfg, std::move(graph));
    rt.Start();

    // The mutator publishes (cycle << 32) | source-op for the live churn
    // query in ONE atomic so producers can never pair a stale cycle with a
    // fresh source; -1 = none. The probe counter is incremented *before*
    // reading the token, so after unpublishing, a drained counter proves no
    // producer still holds a stale token.
    std::atomic<std::int64_t> live_token{-1};
    std::atomic<int> probe_inflight{0};
    std::vector<std::unique_ptr<std::atomic<std::int64_t>>> accepted;
    for (int i = 0; i < kCycles; ++i) {
      accepted.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
    }
    std::atomic<bool> done{false};
    std::atomic<std::int64_t> static_batches{0};

    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        std::int64_t k = 0;
        while (!done.load(std::memory_order_acquire)) {
          // Backpressure: unchecked producers outrun the workers and grow
          // the backlog without bound; pressure, not memory, is the point.
          if (rt.scheduler().pending() > 2000) {
            std::this_thread::yield();
            continue;
          }
          // Keep the static job under constant pressure...
          rt.Ingest(fj.sources[static_cast<std::size_t>(t)], kTuples,
                    Millis(++k));
          static_batches.fetch_add(1, std::memory_order_relaxed);
          // ...and poke the churned query of the moment, tolerating the
          // removal race (a false return must mean "no trace left").
          probe_inflight.fetch_add(1, std::memory_order_seq_cst);
          std::int64_t token = live_token.load(std::memory_order_seq_cst);
          if (token >= 0) {
            auto cyc = static_cast<std::size_t>(token >> 32);
            OperatorId src{token & 0xffffffff};
            if (rt.Ingest(src, kTuples, Millis(k))) {
              accepted[cyc]->fetch_add(kTuples, std::memory_order_seq_cst);
            }
          }
          probe_inflight.fetch_sub(1, std::memory_order_seq_cst);
        }
      });
    }

    int serial = 0;
    for (int cyc = 0; cyc < kCycles; ++cyc) {
      JobId job = rt.AddQuery([&](DataflowGraph& g) {
                       return BuildChurnQuery(g, serial++);
                     }).job;
      ASSERT_TRUE(rt.QueryLive(job));
      OperatorId src = rt.graph().OperatorsOf(job).front();
      OperatorId sink = rt.graph().OperatorsOf(job).back();
      std::int64_t own = 0;
      live_token.store((static_cast<std::int64_t>(cyc) << 32) | src.value,
                       std::memory_order_seq_cst);
      for (int i = 0; i < kMutatorBatches; ++i) {
        ASSERT_TRUE(rt.Ingest(src, kTuples));
        own += kTuples;
      }
      // Unpublish, wait out producers that may hold the token, then remove.
      live_token.store(-1, std::memory_order_seq_cst);
      while (probe_inflight.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
      rt.RemoveQuery(job);
      EXPECT_FALSE(rt.QueryLive(job));
      EXPECT_FALSE(rt.Ingest(src, kTuples)) << "retired source accepted";
      // Graceful removal: everything accepted was executed at the sink.
      auto& s = dynamic_cast<SinkOp&>(rt.graph().Get(sink));
      EXPECT_EQ(s.tuples(),
                own + accepted[static_cast<std::size_t>(cyc)]->load())
          << ToString(kind) << " cycle " << cyc;
      // Grow the pool once mid-run: worker spawn races live ingest.
      if (cyc == kCycles / 2) rt.SetWorkerCount(4);
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : producers) t.join();
    rt.Drain();

    auto& sink = dynamic_cast<SinkOp&>(rt.graph().Get(fj.sink));
    EXPECT_EQ(sink.tuples(), static_batches.load() * kTuples)
        << ToString(kind);
    EXPECT_EQ(rt.scheduler().pending(), 0u) << ToString(kind);
    SchedulerStats stats = rt.scheduler().stats();
    // Zero lost or duplicated: everything enqueued was dispatched; graceful
    // removal purges nothing; rejected ingests never reached a mailbox.
    EXPECT_EQ(stats.enqueued, stats.dispatched) << ToString(kind);
    EXPECT_EQ(stats.purged, 0u) << ToString(kind);
    rt.Stop();
  }
}

// ---- Cross-shard conservation under churn + worker flexing ----

// Hammers a 3-shard ShardRuntime directly: producer threads enqueue locally
// or ship frames through the transport to the target's owning shard, a
// mutator thread churns short-lived operators (enqueue a burst, retire,
// purge) while flexing which workers are active, and per-shard consumers
// drain. The invariant: every message ingested anywhere ends up dispatched,
// purged, or in flight on *exactly one* shard -- at quiescence the in-flight
// term is zero and the ledger must balance exactly. Run under TSan.
TEST(ConcurrencyTest, CrossShardConservationUnderChurnAndFlexing) {
  constexpr int kShards = 3;
  constexpr int kWorkersPerShard = 2;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 3000;
  constexpr int kChurnCycles = 40;
  constexpr int kChurnBurst = 25;
  // Producer traffic targets ops [0, kSteadyOps); churned operators get
  // fresh ids >= kSteadyOps, so a retired operator never sees another send.
  constexpr std::int64_t kSteadyOps = 16;

  EngineOptions opts;
  opts.workers = kWorkersPerShard;
  opts.seed = 99;
  opts.shards = kShards;
  // Zero modeled delay: frames are due the moment they land.
  shard::ShardRuntime rt(
      opts, std::make_unique<shard::InprocTransport>(shard::DelayModel{}, 99));

  constexpr std::int64_t kProducerTotal =
      static_cast<std::int64_t>(kProducers) * kPerProducer;
  std::vector<std::atomic<std::uint8_t>> seen(
      static_cast<std::size_t>(kProducerTotal));
  std::atomic<std::int64_t> dispatched{0};
  // What RetireOperators purged itself. A mailbox a worker holds active at
  // retire time is purged later by that worker's release, so the scheduler
  // ledger (MergedSchedStats().purged), not this count, closes the books.
  std::atomic<std::int64_t> retire_purged{0};
  std::atomic<std::int64_t> mutator_sent{0};
  std::atomic<std::int64_t> replies_shipped{0};
  std::atomic<std::int64_t> replies_received{0};
  std::atomic<bool> sends_done{false};
  std::atomic<int> flex_epoch{0};

  auto make_msg = [](std::int64_t id, OperatorId target) {
    Message m;
    m.id = MessageId{id};
    m.target = target;
    m.pc.id = m.id;
    m.pc.pri_global = (id * 7919) % 1000;
    m.pc.pri_local = id;
    m.batch = EventBatch::Synthetic(1, id + 1);
    return m;
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id =
            static_cast<std::int64_t>(p) * kPerProducer + i;
        const OperatorId target{id % kSteadyOps};
        const int dst = rt.ShardOf(target);
        // Alternate local enqueues with wire-serialized cross-shard sends
        // (the sender pretends to live on a different shard).
        const int src = (dst + 1 + (i % (kShards - 1))) % kShards;
        Message m = make_msg(id, target);
        if (i % 2 == 0) {
          rt.Enqueue(std::move(m), WorkerId{}, id);
        } else {
          rt.SendMessage(src, dst, /*now=*/id, m);
        }
        // Sprinkle reply acks over the same channels: they must neither be
        // lost nor ever count against message conservation.
        if (i % 64 == 0) {
          ReplyContext rc;
          rc.cost_m = i;
          rc.valid = true;
          rt.SendReply(src, dst, id, target, OperatorId{id % kSteadyOps},
                       rc);
          replies_shipped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Mutator: churn short-lived operators and flex the active worker set.
  threads.emplace_back([&] {
    for (int cyc = 0; cyc < kChurnCycles; ++cyc) {
      const OperatorId op{kSteadyOps + cyc};
      for (int i = 0; i < kChurnBurst; ++i) {
        rt.Enqueue(make_msg(-1 - cyc * kChurnBurst - i, op), WorkerId{},
                   cyc);
        mutator_sent.fetch_add(1, std::memory_order_relaxed);
      }
      retire_purged.fetch_add(rt.RetireOperators({op}),
                              std::memory_order_relaxed);
      if (cyc % 5 == 4) flex_epoch.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  // Consumers: local worker 0 of each shard also drains the shard's
  // transport inbox (single consumer per destination, per the Transport
  // contract); worker 1 parks on odd flex epochs (worker flexing).
  for (int s = 0; s < kShards; ++s) {
    for (int w = 0; w < kWorkersPerShard; ++w) {
      threads.emplace_back([&, s, w] {
        const WorkerId local{w};
        for (;;) {
          if (w == 0) {
            Message msg;
            shard::WireReply reply;
            switch (rt.ReceiveOne(s, kTimeMax, msg, reply)) {
              case shard::ReceiveKind::kMessage:
                rt.Enqueue(std::move(msg), WorkerId{}, 0);
                continue;
              case shard::ReceiveKind::kReply:
                replies_received.fetch_add(1, std::memory_order_relaxed);
                continue;
              case shard::ReceiveKind::kNone:
                break;
            }
          } else if ((flex_epoch.load(std::memory_order_relaxed) & 1) != 0) {
            std::this_thread::yield();  // parked: the pool flexed down
            continue;
          }
          std::optional<Message> m = rt.scheduler(s).Dequeue(
              local, dispatched.load(std::memory_order_relaxed));
          if (m.has_value()) {
            if (m->id.value >= 0) {
              seen[static_cast<std::size_t>(m->id.value)].fetch_add(1);
            }
            rt.scheduler(s).OnComplete(m->target, local, 0);
            dispatched.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (sends_done.load(std::memory_order_acquire) &&
              dispatched.load(std::memory_order_relaxed) +
                      static_cast<std::int64_t>(
                          rt.MergedSchedStats().purged) ==
                  kProducerTotal + mutator_sent.load(
                                       std::memory_order_relaxed)) {
            return;
          }
          std::this_thread::yield();
        }
      });
    }
  }

  // Producers + mutator are the first kProducers + 1 threads.
  for (int i = 0; i < kProducers + 1; ++i) threads[static_cast<std::size_t>(i)].join();
  sends_done.store(true, std::memory_order_release);
  for (std::size_t i = kProducers + 1; i < threads.size(); ++i) {
    threads[i].join();
  }

  // The ledger balances: ingested == dispatched + purged, in-flight == 0.
  const SchedulerStats stats = rt.MergedSchedStats();
  EXPECT_EQ(dispatched.load() + static_cast<std::int64_t>(stats.purged),
            kProducerTotal + mutator_sent.load());
  EXPECT_LE(retire_purged.load(), static_cast<std::int64_t>(stats.purged));
  EXPECT_EQ(rt.transport_stats().in_flight(), 0u);
  EXPECT_EQ(rt.TotalPending(), 0u);
  EXPECT_EQ(replies_received.load(), replies_shipped.load());
  // Per-message exactness for the steady traffic: each id exactly once.
  for (std::int64_t id = 0; id < kProducerTotal; ++id) {
    ASSERT_EQ(seen[static_cast<std::size_t>(id)].load(), 1)
        << "message " << id << " lost or duplicated";
  }
  // Merged stats agree with the consumer-side ledger.
  EXPECT_EQ(stats.enqueued, stats.dispatched + stats.purged);
  EXPECT_EQ(stats.dispatched, static_cast<std::uint64_t>(dispatched.load()));
  const shard::WireStats ws = rt.wire_stats();
  EXPECT_EQ(ws.frames_encoded, ws.frames_decoded);
  EXPECT_EQ(ws.rejected, 0u);
}

// ---- 3-shard chaos hammer: session layer under threads + faults ----

// The PR 10 robustness stack under real interleavings: a 3-shard runtime
// with 5% drop, 5% dup, and 2% corruption on every cross-shard channel,
// producer threads shipping through the (now reliable) transport while a
// ticker advances the shared virtual clock that drives retransmit/ack
// timers. Every message must still arrive exactly once -- the session layer
// has to repair the losses concurrently with new traffic. Run under TSan.
TEST(ConcurrencyTest, ThreeShardChaosHammerDeliversExactlyOnce) {
  constexpr int kShards = 3;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 1500;
  constexpr std::int64_t kSteadyOps = 12;

  EngineOptions opts;
  opts.workers = 2;
  opts.seed = 4242;
  opts.shards = kShards;
  opts.sim.shard_faults.drop_rate = 0.05;
  opts.sim.shard_faults.dup_rate = 0.05;
  opts.sim.shard_faults.corrupt_rate = 0.02;
  // Zero modeled delay: frames are due when they land.
  shard::ShardRuntime rt(
      opts,
      std::make_unique<shard::InprocTransport>(shard::DelayModel{}, 4242));
  ASSERT_TRUE(rt.session_enabled());  // faults auto-arm the session layer

  constexpr std::int64_t kTotal =
      static_cast<std::int64_t>(kProducers) * kPerProducer;
  std::vector<std::atomic<std::uint8_t>> seen(
      static_cast<std::size_t>(kTotal));
  std::atomic<std::int64_t> dispatched{0};
  std::atomic<std::int64_t> replies_shipped{0};
  std::atomic<std::int64_t> replies_received{0};
  std::atomic<bool> sends_done{false};
  std::atomic<bool> all_done{false};
  // Virtual clock for the session timers (RTO, delayed acks). Finite values
  // only: timer arming adds ack/RTO delays to `now`.
  std::atomic<SimTime> clock{0};

  auto make_msg = [](std::int64_t id, OperatorId target) {
    Message m;
    m.id = MessageId{id};
    m.target = target;
    m.pc.id = m.id;
    m.pc.pri_global = (id * 7919) % 1000;
    m.pc.pri_local = id;
    m.batch = EventBatch::Synthetic(1, id + 1);
    return m;
  };

  std::vector<std::thread> threads;
  // Ticker: 1 virtual ms per pass keeps RTO chains short in wall time.
  threads.emplace_back([&] {
    while (!all_done.load(std::memory_order_acquire)) {
      clock.fetch_add(kMillisecond, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id =
            static_cast<std::int64_t>(p) * kPerProducer + i;
        const OperatorId target{id % kSteadyOps};
        const int dst = rt.ShardOf(target);
        const int src = (dst + 1 + (i % (kShards - 1))) % kShards;
        const SimTime now = clock.load(std::memory_order_relaxed);
        // Everything crosses a shard boundary: the whole load rides the
        // faulty wire and the session has to carry it.
        rt.SendMessage(src, dst, now, make_msg(id, target));
        if (i % 64 == 0) {
          ReplyContext rc;
          rc.cost_m = i;
          rc.valid = true;
          rt.SendReply(src, dst, now, target, OperatorId{id % kSteadyOps},
                       rc);
          replies_shipped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // One consumer per shard: services the session timers (retransmits,
  // standalone acks), drains the inbox, and dispatches locally.
  for (int s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      const WorkerId local{0};
      std::vector<std::pair<int, SimTime>> deliveries;
      for (;;) {
        const SimTime now = clock.load(std::memory_order_relaxed);
        deliveries.clear();
        rt.ServiceSession(s, now, &deliveries);
        Message msg;
        shard::WireReply reply;
        switch (rt.ReceiveOne(s, now, msg, reply)) {
          case shard::ReceiveKind::kMessage:
            rt.Enqueue(std::move(msg), WorkerId{}, now);
            continue;
          case shard::ReceiveKind::kReply:
            replies_received.fetch_add(1, std::memory_order_relaxed);
            continue;
          case shard::ReceiveKind::kNone:
            break;
        }
        std::optional<Message> m = rt.scheduler(s).Dequeue(local, now);
        if (m.has_value()) {
          if (m->id.value >= 0) {
            seen[static_cast<std::size_t>(m->id.value)].fetch_add(1);
          }
          rt.scheduler(s).OnComplete(m->target, local, 0);
          dispatched.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (sends_done.load(std::memory_order_acquire) &&
            dispatched.load(std::memory_order_relaxed) == kTotal &&
            replies_received.load(std::memory_order_relaxed) ==
                replies_shipped.load(std::memory_order_relaxed)) {
          return;
        }
        std::this_thread::yield();
      }
    });
  }

  // Ticker is thread 0; producers are the next kProducers threads.
  for (int i = 1; i <= kProducers; ++i) {
    threads[static_cast<std::size_t>(i)].join();
  }
  sends_done.store(true, std::memory_order_release);
  for (std::size_t i = static_cast<std::size_t>(kProducers) + 1;
       i < threads.size(); ++i) {
    threads[i].join();
  }
  all_done.store(true, std::memory_order_release);
  threads[0].join();

  // Exactly-once end to end, despite the chaos in the middle.
  for (std::int64_t id = 0; id < kTotal; ++id) {
    ASSERT_EQ(seen[static_cast<std::size_t>(id)].load(), 1)
        << "message " << id << " lost or duplicated";
  }
  EXPECT_EQ(dispatched.load(), kTotal);
  EXPECT_EQ(replies_received.load(), replies_shipped.load());
  const shard::TransportStats ts = rt.transport_stats();
  EXPECT_EQ(ts.sent_unique, ts.delivered);
  // The fault schedule really fired (rates x thousands of frames).
  EXPECT_GT(ts.faults_dropped, 0u);
  EXPECT_GT(ts.faults_duplicated, 0u);
  EXPECT_GT(ts.retransmits, 0u);
  EXPECT_GT(ts.dup_drops, 0u);
}

}  // namespace
}  // namespace cameo
