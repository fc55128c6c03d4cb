// Unit tests for src/sched: the four schedulers' ordering, quantum
// preemption, operator exclusivity, and starvation control; plus the
// policy-comparator strict-weak-ordering property suite (every registered
// policy, randomized contexts).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/policies.h"
#include "sched/cameo_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/mailbox.h"
#include "sched/orleans_scheduler.h"
#include "sched/ready_queue.h"
#include "sched/slot_scheduler.h"

namespace cameo {
namespace {

Message Msg(std::int64_t id, std::int64_t op, Priority global,
            Priority local = 0) {
  Message m;
  m.id = MessageId{id};
  m.target = OperatorId{op};
  m.pc.id = m.id;
  m.pc.pri_global = global;
  m.pc.pri_local = local;
  m.batch = EventBatch::Synthetic(1, 0);
  return m;
}

const WorkerId kW0{0};
const WorkerId kW1{1};
const WorkerId kExternal{};  // invalid: external arrival

// ---------------- CameoScheduler ----------------

TEST(CameoSchedulerTest, OrdersOperatorsByGlobalPriority) {
  CameoScheduler s;
  s.Enqueue(Msg(1, /*op=*/1, /*global=*/Millis(50)), kExternal, 0);
  s.Enqueue(Msg(2, /*op=*/2, /*global=*/Millis(10)), kExternal, 0);
  s.Enqueue(Msg(3, /*op=*/3, /*global=*/Millis(30)), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{2});
  s.OnComplete(m->target, kW0, 0);
  m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{3});
}

TEST(CameoSchedulerTest, OrdersMessagesWithinOperatorByLocalPriority) {
  CameoScheduler s;
  s.Enqueue(Msg(1, 1, Millis(10), /*local=*/30), kExternal, 0);
  s.Enqueue(Msg(2, 1, Millis(10), /*local=*/10), kExternal, 0);
  s.Enqueue(Msg(3, 1, Millis(10), /*local=*/20), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->id, MessageId{2});  // smallest PRI_local first
}

TEST(CameoSchedulerTest, TieBreakIsFifoByMessageId) {
  CameoScheduler s;
  s.Enqueue(Msg(7, 1, Millis(10), 5), kExternal, 0);
  s.Enqueue(Msg(3, 1, Millis(10), 5), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->id, MessageId{3});
}

TEST(CameoSchedulerTest, OperatorExclusivity) {
  // While op 1 runs on worker 0, worker 1 must not receive op 1's messages.
  CameoScheduler s;
  s.Enqueue(Msg(1, 1, Millis(10)), kExternal, 0);
  s.Enqueue(Msg(2, 1, Millis(20)), kExternal, 0);
  auto m0 = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m0);
  auto m1 = s.Dequeue(kW1, 0);
  EXPECT_FALSE(m1);  // only op 1 has work and it is active
  s.OnComplete(OperatorId{1}, kW0, 0);
  m1 = s.Dequeue(kW1, 0);
  ASSERT_TRUE(m1);
  EXPECT_EQ(m1->id, MessageId{2});
}

TEST(CameoSchedulerTest, ContinuesCurrentOperatorWithinQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = Millis(1);
  CameoScheduler s(cfg);
  s.Enqueue(Msg(1, 1, Millis(50)), kExternal, 0);
  s.Enqueue(Msg(2, 1, Millis(50)), kExternal, 0);
  s.Enqueue(Msg(3, 2, Millis(10)), kExternal, 0);  // higher priority op
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{2});  // best op first
  s.OnComplete(OperatorId{2}, kW0, Micros(100));
  // Within quantum and op 2 empty: switch to op 1.
  m = s.Dequeue(kW0, Micros(100));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
  s.OnComplete(OperatorId{1}, kW0, Micros(200));
  // op 1 has another message; still within its quantum: continue with op 1.
  s.Enqueue(Msg(4, 2, Millis(1)), kExternal, Micros(150));  // urgent arrival
  m = s.Dequeue(kW0, Micros(200));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1}) << "within quantum: no preemption";
  EXPECT_GE(s.stats().continuations, 1u);
}

TEST(CameoSchedulerTest, SwapsToHigherPriorityAfterQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = Millis(1);
  CameoScheduler s(cfg);
  s.Enqueue(Msg(1, 1, Millis(50)), kExternal, 0);
  s.Enqueue(Msg(2, 1, Millis(50)), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
  s.Enqueue(Msg(3, 2, Millis(10)), kExternal, Micros(500));
  s.OnComplete(OperatorId{1}, kW0, Millis(2));  // quantum expired
  m = s.Dequeue(kW0, Millis(2));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{2}) << "after quantum: swap to best";
  EXPECT_GE(s.stats().operator_swaps, 1u);
}

TEST(CameoSchedulerTest, KeepsCurrentAfterQuantumIfStillBest) {
  SchedulerConfig cfg;
  cfg.quantum = Millis(1);
  CameoScheduler s(cfg);
  s.Enqueue(Msg(1, 1, Millis(10)), kExternal, 0);
  s.Enqueue(Msg(2, 1, Millis(10)), kExternal, 0);
  s.Enqueue(Msg(3, 2, Millis(50)), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
  s.OnComplete(OperatorId{1}, kW0, Millis(5));
  m = s.Dequeue(kW0, Millis(5));  // quantum long expired
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1}) << "still the best: keep running";
}

TEST(CameoSchedulerTest, MessageGranularityWithZeroQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = 0;
  CameoScheduler s(cfg);
  s.Enqueue(Msg(1, 1, Millis(20)), kExternal, 0);
  s.Enqueue(Msg(2, 1, Millis(20)), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  s.Enqueue(Msg(3, 2, Millis(10)), kExternal, 0);
  s.OnComplete(OperatorId{1}, kW0, 0);
  m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{2}) << "quantum 0 re-evaluates every message";
}

TEST(CameoSchedulerTest, ArrivalImprovesQueuedOperatorPriority) {
  CameoScheduler s;
  s.Enqueue(Msg(1, 1, Millis(50)), kExternal, 0);
  s.Enqueue(Msg(2, 2, Millis(40)), kExternal, 0);
  // A more urgent message for op 1 must float it above op 2.
  s.Enqueue(Msg(3, 1, Millis(10), /*local=*/-1), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
  EXPECT_EQ(m->id, MessageId{3});
}

TEST(CameoSchedulerTest, StarvationGuardCapsEffectivePriority) {
  SchedulerConfig cfg;
  cfg.quantum = 0;
  cfg.starvation_limit = Millis(10);
  CameoScheduler s(cfg);
  // Low-priority message enqueued early: its effective priority is capped at
  // enqueue + 10ms = 10ms, beating the later high-priority message at 20ms.
  s.Enqueue(Msg(1, 1, /*global=*/kPriorityFloor), kExternal, 0);
  s.Enqueue(Msg(2, 2, /*global=*/Millis(20)), kExternal, Millis(5));
  auto m = s.Dequeue(kW0, Millis(15));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
}

TEST(CameoSchedulerTest, PendingCountTracksMessages) {
  CameoScheduler s;
  EXPECT_EQ(s.pending(), 0u);
  s.Enqueue(Msg(1, 1, 1), kExternal, 0);
  s.Enqueue(Msg(2, 2, 2), kExternal, 0);
  EXPECT_EQ(s.pending(), 2u);
  auto m = s.Dequeue(kW0, 0);
  EXPECT_EQ(s.pending(), 1u);
  s.OnComplete(m->target, kW0, 0);
  s.Dequeue(kW0, 0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(CameoSchedulerTest, TopPriorityReflectsBestRunnable) {
  CameoScheduler s;
  EXPECT_FALSE(s.TopPriority().has_value());
  s.Enqueue(Msg(1, 1, Millis(30)), kExternal, 0);
  s.Enqueue(Msg(2, 2, Millis(10)), kExternal, 0);
  ASSERT_TRUE(s.TopPriority().has_value());
  EXPECT_EQ(*s.TopPriority(), Millis(10));
}

// ---------------- FifoScheduler ----------------

TEST(FifoSchedulerTest, ExtractsOperatorsInArrivalOrder) {
  FifoScheduler s;
  s.Enqueue(Msg(1, 1, Millis(1)), kExternal, 0);
  s.Enqueue(Msg(2, 2, Millis(0)), kExternal, 0);  // priority ignored
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
}

TEST(FifoSchedulerTest, MessagesWithinOperatorAreFifo) {
  FifoScheduler s;
  s.Enqueue(Msg(5, 1, 0, /*local=*/99), kExternal, 0);
  s.Enqueue(Msg(6, 1, 0, /*local=*/1), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->id, MessageId{5});
}

TEST(FifoSchedulerTest, RotatesAfterQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = Millis(1);
  FifoScheduler s(cfg);
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  s.Enqueue(Msg(2, 1, 0), kExternal, 0);
  s.Enqueue(Msg(3, 2, 0), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  EXPECT_EQ(m->target, OperatorId{1});
  s.OnComplete(OperatorId{1}, kW0, Millis(2));
  m = s.Dequeue(kW0, Millis(2));  // quantum expired: rotate to op 2
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{2});
  s.OnComplete(OperatorId{2}, kW0, Millis(2));
  m = s.Dequeue(kW0, Millis(2));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1}) << "rotated operator comes back";
}

TEST(FifoSchedulerTest, OperatorExclusivity) {
  FifoScheduler s;
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  s.Enqueue(Msg(2, 1, 0), kExternal, 0);
  ASSERT_TRUE(s.Dequeue(kW0, 0));
  EXPECT_FALSE(s.Dequeue(kW1, 0));
}

TEST(FifoSchedulerTest, ContinuesWhenQueueEmptyEvenPastQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = Millis(1);
  FifoScheduler s(cfg);
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  s.Enqueue(Msg(2, 1, 0), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  s.OnComplete(OperatorId{1}, kW0, Millis(5));
  m = s.Dequeue(kW0, Millis(5));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
}

// ---------------- OrleansScheduler ----------------

TEST(OrleansSchedulerTest, PrefersThreadLocalWork) {
  OrleansScheduler s;
  // Worker 0 produced op 2's message (local); op 1 arrived externally first.
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  auto m0 = s.Dequeue(kW0, 0);  // takes op 1 from global
  ASSERT_TRUE(m0);
  s.Enqueue(Msg(2, 2, 0), kW0, 0);      // produced by worker 0
  s.Enqueue(Msg(3, 3, 0), kExternal, 0);  // external
  s.OnComplete(OperatorId{1}, kW0, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{2}) << "local bag beats global queue";
}

TEST(OrleansSchedulerTest, LocalBagIsLifo) {
  OrleansScheduler s;
  auto seed = Msg(0, 9, 0);
  s.Enqueue(seed, kExternal, 0);
  auto m0 = s.Dequeue(kW0, 0);
  s.Enqueue(Msg(1, 1, 0), kW0, 0);
  s.Enqueue(Msg(2, 2, 0), kW0, 0);
  s.OnComplete(OperatorId{9}, kW0, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{2}) << "most recently produced first";
}

TEST(OrleansSchedulerTest, StealsFromOtherWorkers) {
  OrleansScheduler s;
  auto seed = Msg(0, 9, 0);
  s.Enqueue(seed, kExternal, 0);
  auto m0 = s.Dequeue(kW0, 0);
  s.Enqueue(Msg(1, 1, 0), kW0, 0);  // lands in worker 0's bag
  s.Enqueue(Msg(2, 2, 0), kW0, 0);
  s.OnComplete(OperatorId{9}, kW0, 0);
  // Worker 1 has no local work and the global queue is empty: steal.
  auto m = s.Dequeue(kW1, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1}) << "steals the oldest bag entry";
}

TEST(OrleansSchedulerTest, ExternalArrivalsAreFifoInGlobalQueue) {
  OrleansScheduler s;
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  s.Enqueue(Msg(2, 2, 0), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
}

TEST(OrleansSchedulerTest, OperatorExclusivity) {
  OrleansScheduler s;
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  s.Enqueue(Msg(2, 1, 0), kExternal, 0);
  ASSERT_TRUE(s.Dequeue(kW0, 0));
  EXPECT_FALSE(s.Dequeue(kW1, 0));
}

// ---------------- SlotScheduler ----------------

TEST(SlotSchedulerTest, OperatorsPinnedRoundRobin) {
  SlotScheduler s(2);
  EXPECT_EQ(s.SlotOf(OperatorId{10}), kW0);
  EXPECT_EQ(s.SlotOf(OperatorId{11}), kW1);
  EXPECT_EQ(s.SlotOf(OperatorId{12}), kW0);
  EXPECT_EQ(s.SlotOf(OperatorId{10}), kW0) << "assignment is stable";
}

TEST(SlotSchedulerTest, ExplicitAssignmentRespected) {
  SlotScheduler s(2);
  s.Assign(OperatorId{5}, kW1);
  s.Enqueue(Msg(1, 5, 0), kExternal, 0);
  EXPECT_FALSE(s.Dequeue(kW0, 0)) << "wrong worker sees nothing";
  auto m = s.Dequeue(kW1, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{5});
}

TEST(SlotSchedulerTest, NoWorkStealingAcrossSlots) {
  SlotScheduler s(2);
  // Two ops both pinned to worker 0; worker 1 idles even with backlog.
  s.Assign(OperatorId{1}, kW0);
  s.Assign(OperatorId{2}, kW0);
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  s.Enqueue(Msg(2, 2, 0), kExternal, 0);
  ASSERT_TRUE(s.Dequeue(kW0, 0));
  EXPECT_FALSE(s.Dequeue(kW1, 0));
}

TEST(SlotSchedulerTest, FifoWithinSlot) {
  SlotScheduler s(1);
  s.Enqueue(Msg(1, 1, 0), kExternal, 0);
  s.Enqueue(Msg(2, 2, 0), kExternal, 0);
  auto m = s.Dequeue(kW0, 0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->target, OperatorId{1});
}

TEST(CameoSchedulerTest, BatchStopsAtMoreUrgentOperator) {
  SchedulerConfig cfg;
  cfg.quantum = 0;
  CameoScheduler s(cfg);
  for (int i = 0; i < 4; ++i) {
    const Priority pri = 10 * (i + 1);
    s.Enqueue(Msg(i, /*op=*/1, pri, /*local=*/pri), kExternal, 0);
  }
  s.Enqueue(Msg(4, /*op=*/2, 25, /*local=*/25), kExternal, 0);
  auto next_batch = [&s] {
    std::vector<Message> out;
    s.DequeueBatch(kW0, 0, 8, out);
    std::vector<std::int64_t> ids;
    for (const Message& m : out) ids.push_back(m.id.value);
    if (!out.empty()) s.OnComplete(out.front().target, kW0, 0);
    return ids;
  };
  // Op 2 (25) outranks op 1's third message (30), so the drain stops there.
  EXPECT_EQ(next_batch(), (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(next_batch(), (std::vector<std::int64_t>{4}));
  EXPECT_EQ(next_batch(), (std::vector<std::int64_t>{2, 3}));
  EXPECT_TRUE(next_batch().empty());
}

// ---------------- Cross-scheduler invariants ----------------

class AnySchedulerTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Scheduler> Make() {
    SchedulerConfig cfg;
    cfg.quantum = Millis(1);
    switch (GetParam()) {
      case 0:
        return std::make_unique<CameoScheduler>(cfg);
      case 1:
        return std::make_unique<FifoScheduler>(cfg);
      case 2:
        return std::make_unique<OrleansScheduler>(cfg);
      default:
        return std::make_unique<SlotScheduler>(2, cfg);
    }
  }
};

TEST_P(AnySchedulerTest, ConservesMessages) {
  auto s = Make();
  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    s->Enqueue(Msg(i, i % 7, i % 13, i % 5), i % 2 ? kW0 : kExternal, i);
  }
  int drained = 0;
  for (int round = 0; round < kMessages * 3 && drained < kMessages; ++round) {
    WorkerId w{round % 2};
    auto m = s->Dequeue(w, Millis(round));
    if (!m) continue;
    ++drained;
    s->OnComplete(m->target, w, Millis(round));
  }
  EXPECT_EQ(drained, kMessages);
  EXPECT_EQ(s->pending(), 0u);
  EXPECT_EQ(s->stats().enqueued, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(s->stats().dispatched, static_cast<std::uint64_t>(kMessages));
}

TEST_P(AnySchedulerTest, EmptyDequeueReturnsNullopt) {
  auto s = Make();
  EXPECT_FALSE(s->Dequeue(kW0, 0));
  EXPECT_FALSE(s->Dequeue(kW1, 123));
}

TEST_P(AnySchedulerTest, NeverDispatchesActiveOperatorTwice) {
  auto s = Make();
  for (int i = 0; i < 20; ++i) {
    s->Enqueue(Msg(i, /*op=*/1, i), kExternal, 0);
  }
  auto m0 = s->Dequeue(kW0, 0);
  ASSERT_TRUE(m0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(s->Dequeue(kW1, i)) << "op 1 is active on worker 0";
  }
}

TEST_P(AnySchedulerTest, BatchedDrainIsCappedAndInMailboxOrder) {
  auto s = Make();
  // Local priority follows the id, so every mailbox order is id order.
  for (int i = 0; i < 5; ++i) s->Enqueue(Msg(i, /*op=*/1, 0, i), kExternal, 0);
  std::vector<Message> out;
  ASSERT_EQ(s->DequeueBatch(kW0, 0, 3, out), 3u);
  s->OnComplete(OperatorId{1}, kW0, 0);
  ASSERT_EQ(s->DequeueBatch(kW0, 0, 3, out), 2u);
  s->OnComplete(OperatorId{1}, kW0, 0);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i].id, MessageId{i});
  EXPECT_EQ(s->pending(), 0u);
  EXPECT_EQ(s->stats().dispatched, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, AnySchedulerTest,
                         ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0:
                               return std::string("Cameo");
                             case 1:
                               return std::string("Fifo");
                             case 2:
                               return std::string("Orleans");
                             default:
                               return std::string("Slot");
                           }
                         });

// ---------------- Mailbox ordered buffer ----------------

using LocalOrder = std::pair<Priority, std::int64_t>;  // (pri_local, id)

LocalOrder OrderOf(const Message& m) { return {m.pc.pri_local, m.id.value}; }

TEST(MailboxTest, LocalPriorityDrainMatchesSortedReference) {
  // Each pop must equal the minimum of a std::sort reference over what was
  // drained; a FIFO mailbox, given the same traffic, pops in arrival order.
  for (MailboxOrder order : {MailboxOrder::kLocalPriority, MailboxOrder::kFifo}) {
    for (std::uint64_t seed : {5u, 19u, 2024u}) {
      SCOPED_TRACE(seed);
      SCOPED_TRACE(order == MailboxOrder::kFifo ? "fifo" : "local priority");
      Mailbox mb(order);
      ASSERT_TRUE(mb.TryClaim());  // the test owns the consumer side
      Rng rng(seed);
      std::vector<LocalOrder> drained;  // reference: drained, not yet popped
      std::vector<LocalOrder> inbox;    // pushed, not yet drained
      std::int64_t next_id = 0;
      Priority frontier = 0;
      const auto push = [&] {
        Priority pri;
        if (rng.Chance(0.1)) {
          pri = frontier - rng.UniformInt(1, 5'000);  // straggler
        } else if (rng.Chance(0.2)) {
          pri = frontier;  // equal pri_local under a distinct id
        } else {
          pri = frontier += rng.UniformInt(1, 100);  // in-order run
        }
        // Even ids follow arrival; an occasional odd id sorts before the
        // previous arrival, so equal-priority ties are not arrival order.
        next_id += 2;
        const std::int64_t id = rng.Chance(0.1) ? next_id - 3 : next_id;
        ASSERT_TRUE(mb.Push(Msg(id, /*op=*/1, /*global=*/0, pri)));
        inbox.emplace_back(pri, id);
      };
      const auto drain = [&] {
        mb.DrainInbox();
        drained.insert(drained.end(), inbox.begin(), inbox.end());
        inbox.clear();
        ASSERT_EQ(mb.buffered(), drained.size());
      };
      const auto pop = [&] {
        if (order == MailboxOrder::kLocalPriority) {
          std::sort(drained.begin(), drained.end());
        }
        const LocalOrder peeked = OrderOf(mb.PeekBest());
        const LocalOrder popped = OrderOf(mb.PopBest());
        ASSERT_EQ(peeked, popped) << "PeekBest must equal the next pop";
        ASSERT_EQ(popped, drained.front());
        drained.erase(drained.begin());
      };

      for (int round = 0; round < 200; ++round) {
        const int arrivals = static_cast<int>(rng.UniformInt(0, 40));
        for (int i = 0; i < arrivals; ++i) push();
        drain();
        const int pops = static_cast<int>(
            rng.UniformInt(0, static_cast<std::int64_t>(mb.buffered())));
        for (int i = 0; i < pops; ++i) pop();
        EXPECT_EQ(mb.size(), static_cast<std::int64_t>(drained.size()));
      }
      while (!mb.buffer_empty()) pop();
      EXPECT_TRUE(drained.empty());

      // The purge counts everything: in-order and straggler messages
      // already drained, plus arrivals still in the inbox.
      for (int i = 0; i < 60; ++i) push();
      drain();
      for (int i = 0; i < 7; ++i) push();
      EXPECT_EQ(mb.PurgeBacklog(),
                static_cast<std::int64_t>(drained.size() + inbox.size()));
      EXPECT_EQ(mb.size(), 0);
      EXPECT_TRUE(mb.buffer_empty());
    }
  }
}

// ---------------- Policy-comparator ordering properties ----------------
//
// The scheduler's dispatch order is induced by two comparators over the
// priorities the policies emit: ReadyKey (PRI_global, message id) for the
// operator heap, and (PRI_local, message id) for the mailbox heap. Both
// must be strict weak orderings (irreflexive, asymmetric, transitive) for
// std::push_heap/sort to be defined behavior — and because the message-id
// tie-break makes distinct messages always comparable, they must in fact be
// strict *total* orders: exactly one of a<b / b<a for a != b, which is what
// makes equal-priority dispatch deterministic FIFO for every policy,
// including SJF's all-zero cold-start band. The suite runs each registered
// policy over randomized contexts (so it covers every roster addition
// automatically) and checks the axioms on the resulting keys.

/// Mirrors the mailbox's LocalBefore (mailbox.cpp).
struct LocalKey {
  Priority pri = 0;
  std::int64_t seq = 0;
  friend bool operator<(const LocalKey& a, const LocalKey& b) {
    if (a.pri != b.pri) return a.pri < b.pri;
    return a.seq < b.seq;
  }
};

class PolicyOrderingProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyOrderingProperty, ComparatorIsStrictTotalOrder) {
  PolicyOptions opts;
  opts.seed = 99;
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(GetParam(), opts);
  Rng rng(13);

  // Randomized contexts: mixed jobs/targets, token state, occasional
  // invalid Reply Contexts (the SJF cold-start band) and identical inputs
  // (forcing equal priorities, so only the id tie-break separates keys).
  std::vector<ReadyKey> global_keys;
  std::vector<LocalKey> local_keys;
  const int kSamples = 48;
  for (int i = 0; i < kSamples; ++i) {
    PriorityContext pc;
    pc.id = MessageId{i};
    pc.job = JobId{rng.UniformInt(1, 4)};
    pc.frontier_time = rng.UniformInt(0, Seconds(100));
    pc.frontier_progress =
        (i % 5 == 0) ? Seconds(50) : pc.frontier_time;  // forced collisions
    pc.latency_constraint = rng.UniformInt(Millis(1), Seconds(10));
    pc.has_token = (i % 3 == 0);
    pc.token_tag = rng.UniformInt(0, Seconds(10));
    pc.token_interval = rng.UniformInt(1, 100);
    ReplyContext rc;
    rc.valid = (i % 4 != 0);
    rc.cost_m = rng.UniformInt(0, Millis(50));
    rc.cost_path = rng.UniformInt(0, Millis(50));
    OperatorId target{rng.UniformInt(1, 6)};
    policy->AssignPriority(pc, rc, target);
    global_keys.push_back(ReadyKey{pc.pri_global, pc.id.value});
    local_keys.push_back(LocalKey{pc.pri_local, pc.id.value});
  }

  auto check_axioms = [&](const auto& keys) {
    const std::size_t n = keys.size();
    for (std::size_t a = 0; a < n; ++a) {
      EXPECT_FALSE(keys[a] < keys[a]) << "irreflexive, sample " << a;
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        // Asymmetry + totality: distinct ids compare one way, exactly.
        EXPECT_NE(keys[a] < keys[b], keys[b] < keys[a])
            << "total order on distinct ids, samples " << a << "," << b;
        for (std::size_t c = 0; c < n; ++c) {
          if (keys[a] < keys[b] && keys[b] < keys[c]) {
            EXPECT_TRUE(keys[a] < keys[c])
                << "transitive, samples " << a << "," << b << "," << c;
          }
        }
      }
    }
  };
  check_axioms(global_keys);
  check_axioms(local_keys);
}

TEST_P(PolicyOrderingProperty, RepeatAssignmentKeepsKeysComparable) {
  // Stateful policies (Stride pass accumulation, Lottery draws, MLFQ seq)
  // emit a *different* PRI_global for the same context on every call; the
  // induced keys must remain strictly ordered — no wraparound into the
  // kPriorityFloor band or duplicate (pri, id) pairs.
  std::unique_ptr<SchedulingPolicy> policy =
      MakePolicy(GetParam(), PolicyOptions{.seed = 5});
  std::vector<ReadyKey> keys;
  for (int i = 0; i < 200; ++i) {
    PriorityContext pc;
    pc.id = MessageId{i};
    pc.job = JobId{1 + (i % 2)};
    pc.frontier_time = Seconds(1);
    pc.frontier_progress = Seconds(1);
    pc.latency_constraint = Millis(800);
    pc.has_token = true;  // TokenFair: tokened, so keys stay off the floor
    pc.token_tag = Millis(i);
    pc.token_interval = 1;
    policy->AssignPriority(pc, ReplyContext{}, OperatorId{1});
    keys.push_back(ReadyKey{pc.pri_global, pc.id.value});
    EXPECT_LT(pc.pri_global, kPriorityFloor) << GetParam();
  }
  for (std::size_t a = 0; a + 1 < keys.size(); ++a) {
    EXPECT_NE(keys[a] < keys[a + 1], keys[a + 1] < keys[a]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyOrderingProperty,
                         ::testing::ValuesIn(ValidPolicyNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace cameo
