// Allocation microbench: the zero-allocation hot path in isolation.
//  - recycled vs heap node round-trips (what Mailbox::Push saves per
//    message),
//  - the mailbox push -> drain -> pop cycle,
//  - the allocation-free sim event loop (key heap + inline closures), alone
//    and in the simulator's event mix (fixed-delay lanes + heap).
// Simple chrono loops rather than google-benchmark: scenarios share one
// process-wide google-benchmark registry, and fig12 owns it.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/runner/registry.h"
#include "common/pool.h"
#include "common/rng.h"
#include "sched/mailbox.h"
#include "sim/event_queue.h"

namespace cameo {
namespace {

using clock_type = std::chrono::steady_clock;

double NsPerOp(clock_type::time_point t0, clock_type::time_point t1,
               int iters) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
             .count() /
         static_cast<double>(iters);
}

struct PayloadNode {
  PayloadNode() = default;
  explicit PayloadNode(Message m) : msg(std::move(m)) {}
  Message msg;
  PayloadNode* next = nullptr;
};

Message MakeMsg(std::int64_t id) {
  Message m;
  m.id = MessageId{id};
  m.target = OperatorId{id % 7};
  m.pc.id = m.id;
  m.pc.pri_global = id;
  m.pc.pri_local = id;
  m.batch = EventBatch::Synthetic(1, id);
  return m;
}

void Run(bench::BenchContext& ctx) {
  const int kIters = ctx.smoke ? 50000 : 500000;
  std::printf("=== allocation microbench (%d iters) ===\n", kIters);

  // Heap round-trip: what every mailbox push used to pay.
  auto t0 = clock_type::now();
  for (int i = 0; i < kIters; ++i) {
    auto* n = new PayloadNode(MakeMsg(i));
    delete n;
  }
  auto t1 = clock_type::now();
  const double heap_ns = NsPerOp(t0, t1, kIters);

  // Recycled round-trip (same payload): the Take/Put pair Mailbox::Push and
  // DrainInbox pay per message, thread-cache fast path once warm.
  auto& stash = RecycleStash<std::unique_ptr<PayloadNode>>::Global();
  stash.Put(std::make_unique<PayloadNode>());  // warm the cache
  t0 = clock_type::now();
  for (int i = 0; i < kIters; ++i) {
    std::unique_ptr<PayloadNode> n = stash.Take().value_or(nullptr);
    if (n == nullptr) n = std::make_unique<PayloadNode>();
    n->msg = MakeMsg(i);
    stash.Put(std::move(n));
  }
  t1 = clock_type::now();
  const double stash_ns = NsPerOp(t0, t1, kIters);

  // Mailbox cycle: push -> drain -> pop (the per-message mailbox
  // traffic of the dispatch path), steady-state depth 1.
  Mailbox mb(MailboxOrder::kLocalPriority);
  t0 = clock_type::now();
  for (int i = 0; i < kIters; ++i) {
    mb.Push(MakeMsg(i));
    mb.DrainInbox();
    Message m = mb.PopBest();
    (void)m;
  }
  t1 = clock_type::now();
  const double mailbox_ns = NsPerOp(t0, t1, kIters);

  // Sim event loop cycle: schedule + run one inline closure per iteration
  // (staggered times, so a few events are pending at once).
  EventQueue q;
  std::int64_t ran = 0;
  t0 = clock_type::now();
  for (int i = 0; i < kIters; ++i) {
    q.Schedule(q.now() + (i % 3) * Micros(100), [&ran] { ++ran; });
    q.RunNext();
  }
  t1 = clock_type::now();
  const double event_ns = NsPerOp(t0, t1, kIters);
  CAMEO_CHECK(ran == kIters);

  // The simulator's event mix at a steady depth: ~130 pending events, each
  // run replaced by one new event whose delay is 0 (the wake-up sweep) 27%
  // of the time, the intra-shard hop 34%, and otherwise spread over
  // 10 us - 5 ms (arrivals, activation completions). Delays are drawn up
  // front so the draw stays out of the timed loop.
  constexpr std::size_t kMixDepth = 130;
  std::vector<Duration> delays(4096);
  Rng mix_rng(36);
  for (Duration& d : delays) {
    const double u = mix_rng.Uniform01();
    d = u < 0.27   ? 0
        : u < 0.61 ? EventQueue::kLaneDelays[1]
                   : mix_rng.UniformInt(Micros(10), Millis(5));
  }
  EventQueue mix;
  std::int64_t mix_ran = 0;
  for (std::size_t i = 0; i < kMixDepth; ++i) {
    mix.Schedule(delays[i], [&mix_ran] { ++mix_ran; });
  }
  t0 = clock_type::now();
  for (int i = 0; i < kIters; ++i) {
    const Duration d = delays[static_cast<std::size_t>(i) % delays.size()];
    mix.Schedule(mix.now() + d, [&mix_ran] { ++mix_ran; });
    mix.RunNext();
  }
  t1 = clock_type::now();
  const double mix_ns = NsPerOp(t0, t1, kIters);
  CAMEO_CHECK(mix_ran == kIters);

  std::printf("%-28s %10.1f ns/op\n", "heap node round-trip", heap_ns);
  std::printf("%-28s %10.1f ns/op\n", "stash node round-trip", stash_ns);
  std::printf("%-28s %10.1f ns/op\n", "mailbox push+drain+pop", mailbox_ns);
  std::printf("%-28s %10.1f ns/op\n", "event schedule+run", event_ns);
  std::printf("%-28s %10.1f ns/op\n", "event mix, depth 130", mix_ns);

  ctx.Metric("heap_node.ns_per_op", heap_ns);
  // Key predates the stash; kept so the checked-in baseline still compares.
  ctx.Metric("pool_node.ns_per_op", stash_ns);
  ctx.Metric("mailbox_cycle.ns_per_op", mailbox_ns);
  ctx.Metric("event_cycle.ns_per_op", event_ns);
  ctx.Metric("event_mix.ns_per_op", mix_ns);
}

CAMEO_BENCH_REGISTER("alloc_pool", "pooling",
                     "zero-allocation hot path microbenchmarks", Run);

}  // namespace
}  // namespace cameo
