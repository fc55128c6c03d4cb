// Figure 12: scheduling overhead, measured with google-benchmark on the real
// data structures (no simulation).
//  Left:  per-message cost of (i) FIFO scheduling, (ii) Cameo priority
//         scheduling without priority generation, (iii) full Cameo
//         (scheduling + context conversion). Paper: worst-case overhead
//         < 15% of a no-op message's processing time: ~4% priority
//         scheduling + ~11% priority generation.
//  Right: overhead as a fraction of execution time vs batch size. Paper:
//         6.4% at batch size 1 for a local aggregation, falling with batch.
//
// Batched-drain panel (claim-and-drain contract, this repo's dispatch path):
// BM_CameoScheduleBatch8 drains up to 8 messages per claim from a standing
// backlog -- one ready-queue pop, one claim CAS and one release amortize
// over the batch, and the mailbox node pool removes the per-push heap
// allocation. Messages arrive in runs of 8 per operator (batching clients),
// so the between-message priority re-check keeps the drain going; a strictly
// more urgent operator still cuts it short.
//
// Deep-mailbox panel: BM_CameoDeepMailbox keeps one operator's mailbox 4,096
// messages deep with arrivals in (PRI_local, id) order, the shape of a Cameo
// source's backlog. The panels above spread their backlog over 325 mailboxes,
// so none of them pops from a deep mailbox.
//
// Contended panel (sharded control plane): the same dispatch path hammered
// from 8 worker threads, (a) behind one global mutex -- the pre-refactor
// ThreadRuntime dispatch path, claim-one contract -- and (b) calling the
// internally-synchronized scheduler directly with the batched contract. All
// google-benchmark results land in the JSON as gb.<name>.ns_per_op so
// before/after runs can be diffed mechanically (bench/compare_baselines.py).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/runner/registry.h"
#include "core/context_converter.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/window_agg.h"
#include "sched/cameo_scheduler.h"
#include "sched/fifo_scheduler.h"

namespace cameo {
namespace {

constexpr int kOperators = 325;  // paper: 300-350 no-op tenants
constexpr std::size_t kDrain = 8;     // messages per claim in batched panels
constexpr int kBacklog = 2048;        // standing backlog for batched panels
constexpr int kDeepBacklog = 4096;    // standing backlog of the deep mailbox

Message MakeMsg(std::int64_t id, std::int64_t op) {
  Message m;
  m.id = MessageId{id};
  m.target = OperatorId{op};
  m.pc.id = m.id;
  m.pc.pri_global = id;          // precomputed priorities
  m.pc.pri_local = id;
  m.batch = EventBatch::Synthetic(1, id);
  return m;
}

/// Batching-client arrival pattern: ids land on one operator in runs of
/// kDrain before moving to the next, so per-mailbox backlogs are contiguous
/// in priority (the regime where drains actually batch).
std::int64_t RunOfEightOp(std::int64_t id) {
  return (id / static_cast<std::int64_t>(kDrain)) % kOperators;
}

void BM_FifoSchedule(benchmark::State& state) {
  FifoScheduler sched;
  const WorkerId w{0};
  std::int64_t id = 0;
  for (auto _ : state) {
    Message m = MakeMsg(id, id % kOperators);
    ++id;
    sched.Enqueue(std::move(m), WorkerId{}, id);
    auto out = sched.Dequeue(w, id);
    benchmark::DoNotOptimize(out);
    sched.OnComplete(out->target, w, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoSchedule);

void BM_CameoScheduleOnly(benchmark::State& state) {
  // Priority scheduling only: PCs arrive precomputed (no generation),
  // classic claim-one dispatch.
  CameoScheduler sched;
  const WorkerId w{0};
  std::int64_t id = 0;
  for (auto _ : state) {
    Message m = MakeMsg(id, id % kOperators);
    ++id;
    sched.Enqueue(std::move(m), WorkerId{}, id);
    auto out = sched.Dequeue(w, id);
    benchmark::DoNotOptimize(out);
    sched.OnComplete(out->target, w, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameoScheduleOnly);

void BM_CameoScheduleBatch8(benchmark::State& state) {
  // Claim-and-drain contract over a standing backlog: amortized per-message
  // scheduling cost with pooled mailbox nodes.
  CameoScheduler sched;
  const WorkerId w{0};
  std::int64_t id = 0;
  for (; id < kBacklog; ++id) {
    sched.Enqueue(MakeMsg(id, RunOfEightOp(id)), WorkerId{}, id);
  }
  std::vector<Message> stash;
  std::size_t next = 0;
  for (auto _ : state) {
    sched.Enqueue(MakeMsg(id, RunOfEightOp(id)), WorkerId{}, id);
    ++id;
    if (next == stash.size()) {
      stash.clear();
      next = 0;
      while (sched.DequeueBatch(w, id, kDrain, stash) == 0) {
      }
      sched.OnComplete(stash.front().target, w, id);
    }
    benchmark::DoNotOptimize(stash[next]);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameoScheduleBatch8);

void BM_CameoDeepMailbox(benchmark::State& state) {
  // Claim-one dispatch from one operator whose mailbox holds a standing
  // in-order backlog: each pop comes from a kDeepBacklog-deep buffer.
  CameoScheduler sched;
  const WorkerId w{0};
  std::int64_t id = 0;
  for (; id < kDeepBacklog; ++id) {
    sched.Enqueue(MakeMsg(id, /*op=*/0), WorkerId{}, id);
  }
  for (auto _ : state) {
    sched.Enqueue(MakeMsg(id, /*op=*/0), WorkerId{}, id);
    ++id;
    auto out = sched.Dequeue(w, id);
    benchmark::DoNotOptimize(out);
    sched.OnComplete(out->target, w, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameoDeepMailbox);

struct ConversionRig {
  ConversionRig()
      : source("src", CostModel{}),
        agg("agg", WindowSpec::Tumbling(Seconds(1)), CostModel{},
            AggKind::kSum),
        converter(&policy, ConverterOptions{
                               .use_query_semantics = true,
                               .time_domain = TimeDomain::kEventTime}) {
    source.Bind(OperatorId{0}, StageId{0}, JobId{0});
    agg.Bind(OperatorId{1}, StageId{1}, JobId{0});
    ReplyContext rc;
    rc.valid = true;
    rc.cost_m = Micros(100);
    rc.cost_path = Micros(200);
    converter.SeedReply(agg.id(), rc);
  }
  LeastLaxityFirst policy;
  SourceOp source;
  WindowAggOp agg;
  ContextConverter converter;
};

void BM_CameoFull(benchmark::State& state) {
  // Priority generation (context conversion) + priority scheduling,
  // claim-one dispatch.
  CameoScheduler sched;
  ConversionRig rig;
  const WorkerId w{0};
  std::int64_t id = 0;
  PriorityContext upstream;
  upstream.latency_constraint = Millis(800);
  for (auto _ : state) {
    ++id;
    Message m;
    m.pc = rig.converter.BuildCxtAtOperator(upstream, rig.source, rig.agg,
                                            /*out_p=*/id * 1000,
                                            /*out_t=*/id * 1000 + 50,
                                            MessageId{id});
    m.id = m.pc.id;
    m.target = OperatorId{id % kOperators};
    m.batch = EventBatch::Synthetic(1, id);
    sched.Enqueue(std::move(m), WorkerId{}, id);
    auto out = sched.Dequeue(w, id);
    benchmark::DoNotOptimize(out);
    sched.OnComplete(out->target, w, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameoFull);

void BM_ContextConvertAlone(benchmark::State& state) {
  ConversionRig rig;
  PriorityContext upstream;
  upstream.latency_constraint = Millis(800);
  std::int64_t id = 0;
  for (auto _ : state) {
    ++id;
    PriorityContext pc = rig.converter.BuildCxtAtOperator(
        upstream, rig.source, rig.agg, id * 1000, id * 1000 + 50,
        MessageId{id});
    benchmark::DoNotOptimize(pc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContextConvertAlone);

// ---- contended enqueue+dequeue path, 8 worker threads ----
//
// Each thread plays a worker: enqueue one message, then obtain work (another
// thread may own the target -- operator exclusivity), then complete it.
// Message conservation keeps the scheduler's backlog bounded across
// iterations. The global-lock variant runs the pre-refactor claim-one
// contract under one mutex; the sharded variant runs the current batched
// contract directly.

struct ContendedRig {
  CameoScheduler sched;
  std::atomic<std::int64_t> next_id{0};
};
ContendedRig* g_contended = nullptr;
std::mutex g_global_lock;  // emulates the pre-refactor control-plane mutex

template <bool kGlobalLock>
void ContendedBody(benchmark::State& state) {
  if (state.thread_index() == 0) {
    delete g_contended;
    g_contended = new ContendedRig();
    // Standing backlog so the ready queue never empties: the benchmark
    // measures the contended dispatch path, not empty-queue parking.
    for (int i = 0; i < kBacklog; ++i) {
      std::int64_t id = g_contended->next_id.fetch_add(1);
      g_contended->sched.Enqueue(MakeMsg(id, RunOfEightOp(id)), WorkerId{},
                                 id);
    }
  }
  const WorkerId w{state.thread_index()};
  std::vector<Message> stash;
  std::size_t next = 0;
  for (auto _ : state) {
    ContendedRig& rig = *g_contended;
    std::int64_t id = rig.next_id.fetch_add(1, std::memory_order_relaxed);
    Message m = MakeMsg(id, RunOfEightOp(id));
    if constexpr (kGlobalLock) {
      {
        std::lock_guard lock(g_global_lock);
        rig.sched.Enqueue(std::move(m), WorkerId{}, id);
      }
      for (;;) {
        {
          std::lock_guard lock(g_global_lock);
          auto out = rig.sched.Dequeue(w, id);
          if (out.has_value()) {
            benchmark::DoNotOptimize(out);
            rig.sched.OnComplete(out->target, w, id);
            break;
          }
        }
        std::this_thread::yield();  // a real worker parks on a miss
      }
    } else {
      rig.sched.Enqueue(std::move(m), WorkerId{}, id);
      if (next == stash.size()) {
        stash.clear();
        next = 0;
        while (rig.sched.DequeueBatch(w, id, kDrain, stash) == 0) {
          std::this_thread::yield();  // a real worker parks on a miss
        }
        rig.sched.OnComplete(stash.front().target, w, id);
      }
      benchmark::DoNotOptimize(stash[next]);
      ++next;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CameoSchedule_GlobalLock8(benchmark::State& state) {
  ContendedBody<true>(state);
}
BENCHMARK(BM_CameoSchedule_GlobalLock8)->Threads(8)->UseRealTime();

void BM_CameoSchedule_Sharded8(benchmark::State& state) {
  ContendedBody<false>(state);
}
BENCHMARK(BM_CameoSchedule_Sharded8)->Threads(8)->UseRealTime();

// Right panel: overhead fraction vs batch size, using the calibrated local
// aggregation cost model (0.3 ms + 1.5 us/tuple).
void OverheadVsBatchSize(bench::BenchContext& ctx, double sched_ns_per_msg) {
  std::printf(
      "\n=== Figure 12 (right): scheduling overhead vs batch size ===\n");
  std::printf("paper: 6.4%% at batch size 1, falling with batch size\n");
  std::printf("%-12s %16s %16s\n", "batch", "exec_per_msg", "overhead");
  const CostModel agg{Micros(300), 1500, 0};
  for (std::int64_t batch : {1LL, 1000LL, 5000LL, 20000LL, 80000LL}) {
    double exec_ns = static_cast<double>(agg.Expected(batch));
    double frac = sched_ns_per_msg / (sched_ns_per_msg + exec_ns);
    std::printf("%-12lld %13.3fms %15.2f%%\n", static_cast<long long>(batch),
                exec_ns / 1e6, 100 * frac);
    ctx.Metric("overhead_frac.batch" + std::to_string(batch), frac);
  }
}

/// Console reporting plus one JSON metric per google-benchmark result.
class MetricCapturingReporter final : public benchmark::ConsoleReporter {
 public:
  explicit MetricCapturingReporter(bench::BenchContext& ctx) : ctx_(ctx) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string key = "gb." + run.benchmark_name() + ".ns_per_op";
      for (char& c : key) {
        if (c == ':' || c == '/') c = '_';
      }
      ctx_.Metric(key, run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchContext& ctx_;
};

void Run(bench::BenchContext& ctx) {
  // Left panel: google-benchmark micro-benchmarks on the real scheduler data
  // structures. Smoke mode caps measurement time per benchmark.
  char arg0[] = "cameo_bench";
  char arg1[] = "--benchmark_min_time=0.01";
  char* argv[] = {arg0, arg1, nullptr};
  int argc = ctx.smoke ? 2 : 1;
  benchmark::Initialize(&argc, argv);
  MetricCapturingReporter reporter(ctx);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Measure the full Cameo per-message cost once more, cheaply, to feed the
  // right panel (coarse timing is fine: it is a ratio illustration). This
  // runs the repo's actual dispatch contract -- context conversion per
  // message, claim-and-drain batches of up to kDrain over a standing
  // backlog, pooled mailbox nodes.
  using clock = std::chrono::steady_clock;
  CameoScheduler sched;
  ConversionRig rig;
  const WorkerId w0{0};
  PriorityContext upstream;
  upstream.latency_constraint = Millis(800);
  auto make = [&](std::int64_t i) {
    Message m;
    m.pc = rig.converter.BuildCxtAtOperator(upstream, rig.source, rig.agg,
                                            i * 1000, i * 1000 + 50,
                                            MessageId{i});
    m.id = m.pc.id;
    m.target = OperatorId{RunOfEightOp(i)};
    m.batch = EventBatch::Synthetic(1, i);
    return m;
  };
  std::int64_t id = 0;
  for (; id < kBacklog; ++id) {
    sched.Enqueue(make(id), WorkerId{}, id);
  }
  const int kIters = ctx.smoke ? 20000 : 200000;
  std::vector<Message> stash;
  std::size_t next = 0;
  auto t0 = clock::now();
  for (int i = 0; i < kIters; ++i) {
    sched.Enqueue(make(id), WorkerId{}, id);
    ++id;
    if (next == stash.size()) {
      stash.clear();
      next = 0;
      while (sched.DequeueBatch(w0, id, kDrain, stash) == 0) {
      }
      sched.OnComplete(stash.front().target, w0, id);
    }
    ++next;
  }
  double ns_per_msg =
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
          .count() /
      static_cast<double>(kIters);
  ctx.Metric("cameo_full.ns_per_msg", ns_per_msg);
  OverheadVsBatchSize(ctx, ns_per_msg);
}

CAMEO_BENCH_REGISTER("fig12_overhead", "Figure 12",
                     "per-message scheduling overhead (google-benchmark)",
                     Run);

}  // namespace
}  // namespace cameo
