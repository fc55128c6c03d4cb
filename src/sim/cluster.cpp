#include "sim/cluster.h"

#include <algorithm>
#include <bitset>

#include "common/check.h"
#include "common/pool.h"
#include "dataflow/critical_path.h"

namespace cameo {

namespace {

/// Chaos-mode timer pump cadence: how often each shard services its session
/// timers (retransmits, delayed acks) and drains parked frames when no
/// receive event is otherwise scheduled.
constexpr Duration kChaosPumpTick = Millis(2);

}  // namespace

/// The simulator's hooks into the shared message step (core/message_step.h):
/// the invocation runs at its completion time with a sampled cost and queued
/// until its batch was dispatched; ids come from a plain counter; outputs and
/// replies are scheduled on the event queue, or shipped on the transport
/// when they cross shards.
struct Cluster::StepHooks {
  Cluster& c;
  WorkerId w;
  int shard;  // the invoked operator's
  SimTime dispatch_time;
  Duration cost;

  SimTime InvokeStart() { return c.events_.now(); }
  StepClock InvokeEnd(const Operator&, const Message&, SimTime now) {
    return {.cost = cost, .now = now, .dequeued = dispatch_time};
  }
  MessageId NextId() { return c.NextMessageId(); }
  LatencyRecorder& latency() { return c.latency_; }

  void Deliver(Message md) {
    const int dst = c.runtime_->ShardOf(md.target);
    if (dst == shard) {
      // Intra-shard hop: same path (and same virtual-time schedule) as the
      // pre-shard cluster.
      auto deliver = [cl = &c, md = std::move(md), w = w]() mutable {
        cl->Deliver(std::move(md), w);
      };
      static_assert(sizeof(deliver) <= EventQueue::kActionCapacity,
                    "delivery closure outgrew the inline event buffer; the "
                    "common sim path would heap-allocate every delivery");
      c.events_.Schedule(c.events_.now() + c.options_.sim.network_delay,
                         std::move(deliver));
      return;
    }
    // Cross-shard hop: serialize through the wire codec and ship on the
    // transport; the receive event fires at the modeled delivery time.
    const SimTime at = c.runtime_->SendMessage(shard, dst, c.events_.now(), md);
    md.batch.Recycle();  // columns are on the wire now; park the buffers
    c.events_.Schedule(at, [cl = &c, dst] { cl->ReceiveShardFrame(dst); });
  }

  void Reply(OperatorId sender, OperatorId from, const ReplyContext& rc) {
    const int dst = c.runtime_->ShardOf(sender);
    if (dst == shard) {
      c.events_.Schedule(c.events_.now() + c.options_.sim.network_delay,
                         [cl = &c, sender, from, rc] {
                           cl->converter(sender).ProcessCtxFromReply(from, rc);
                         });
      return;
    }
    const SimTime at =
        c.runtime_->SendReply(shard, dst, c.events_.now(), sender, from, rc);
    c.events_.Schedule(at, [cl = &c, dst] { cl->ReceiveShardFrame(dst); });
  }
};

Cluster::Cluster(EngineOptions options, DataflowGraph graph)
    : options_(std::move(options)),
      graph_(std::move(graph)),
      rng_(options_.seed),
      profiler_(/*smoothing=*/0.25, /*noise_seed=*/options_.seed ^ 0x9e3779b9) {
  ValidateEngineOptions(options_);
  workers_.resize(static_cast<std::size_t>(options_.workers) *
                  static_cast<std::size_t>(options_.shards));
  shard::ShardRuntimeOptions ro;
  ro.num_shards = options_.shards;
  ro.workers_per_shard = options_.workers;
  ro.scheduler = options_.scheduler;
  ro.sched = options_.sched;
  ro.policy = options_.policy;
  ro.seed = options_.seed;
  ro.link = {options_.sim.shard_link_delay, options_.sim.shard_link_jitter};
  ro.session = options_.sim.shard_session;
  ro.faults = options_.sim.shard_faults;
  ro.admission_limit = options_.sim.admission_limit;
  runtime_ = std::make_unique<shard::ShardRuntime>(std::move(ro));
  chaos_mode_ = runtime_->session_enabled();
  pump_active_.assign(static_cast<std::size_t>(options_.shards), false);
  profiler_.SetPerturbation(options_.sim.profiler_perturbation);
  // Every shard's policy reads the shared profiler. Profiler entries are
  // per-operator and an operator executes only on its owning shard, so the
  // shared map is semantically per-shard state.
  runtime_->BindCostReader(&profiler_);
  timeline_.SetEnabled(options_.sim.enable_timeline);
  for (JobId job : graph_.job_ids()) RegisterJob(job);
}

void Cluster::RegisterJob(JobId job) {
  const JobSpec& spec = graph_.job(job);
  ConverterOptions options;
  options.use_query_semantics = options_.use_query_semantics;
  options.time_domain = spec.time_domain;
  for (OperatorId op : graph_.OperatorsOf(job)) {
    // Bound to the *owning shard's* policy instance: an operator's send path
    // consults only its own machine's policy state (paper §5.3 -- contexts
    // are built at the sender, no global scheduler state).
    converters_.emplace(op, std::make_unique<ContextConverter>(
                                runtime_->policy_of(op), options));
  }
  latency_.RegisterJob(job, spec.latency_constraint, spec.output_window,
                       spec.output_slide);
  if (!options_.sim.seed_static_estimates) return;
  // Cold-start seeds from static critical-path analysis.
  CriticalPathResult cp =
      ComputeCriticalPath(graph_, job, options_.sim.seed_nominal_tuples);
  for (const auto& [op, cost] : cp.cost) profiler_.Seed(op, cost);
  for (StageId sid : graph_.stages_of(job)) {
    const StageInfo& stage = graph_.stage(sid);
    for (StageId did : stage.downstream) {
      for (OperatorId u : stage.operators) {
        for (OperatorId t : graph_.stage(did).operators) {
          ReplyContext rc;
          rc.valid = true;
          rc.cost_m = cp.cost.at(t);
          rc.cost_path = cp.path_below.at(t);
          converters_.at(u)->SeedReply(t, rc);
        }
      }
    }
  }
}

ContextConverter& Cluster::converter(OperatorId op) {
  auto it = converters_.find(op);
  CAMEO_EXPECTS(it != converters_.end());
  return *it->second;
}

void Cluster::AddIngestion(StageId source_stage,
                           const ArrivalProcessFactory& factory,
                           Duration event_time_delay,
                           const KeySamplerFactory& key_sampler) {
  const StageInfo& stage = graph_.stage(source_stage);
  const JobSpec& spec = graph_.job(stage.job);
  for (int r = 0; r < stage.parallelism; ++r) {
    SourceState s;
    s.op = stage.operators[static_cast<std::size_t>(r)];
    s.process = factory(r);
    CAMEO_CHECK(s.process != nullptr);
    s.event_time_delay = event_time_delay;
    if (key_sampler) {
      s.sampler = key_sampler(r);
      CAMEO_CHECK(s.sampler != nullptr);
      // Distinct deterministic stream per source; decoupled from rng_ so
      // keyed ingestion cannot shift any existing scenario's replay.
      s.key_rng = Rng(options_.seed * 0x9E3779B97F4A7C15ULL +
                      (sources_.size() + 1) * 0xD1B54A32D192ED03ULL);
    }
    if (spec.token_rate_per_sec > 0) {
      auto budget = static_cast<std::int64_t>(spec.token_rate_per_sec);
      token_buckets_.emplace(s.op, TokenBucket(std::max<std::int64_t>(
                                       1, budget)));
    }
    sources_.push_back(std::move(s));
  }
}

int Cluster::ScheduleQuery(SimTime at, SimTime until, QueryBuilder builder,
                           ArrivalProcessFactory ingestion,
                           Duration event_time_delay) {
  CAMEO_EXPECTS(builder != nullptr && ingestion != nullptr);
  auto ticket = static_cast<int>(scheduled_.size());
  auto q = std::make_unique<ScheduledQuery>();
  q->at = at;
  q->until = until;
  q->build = std::move(builder);
  q->ingestion = std::move(ingestion);
  q->event_time_delay = event_time_delay;
  scheduled_.push_back(std::move(q));
  events_.Schedule(at, [this, ticket] {
    ScheduledQuery& q = *scheduled_[static_cast<std::size_t>(ticket)];
    std::size_t first_source = sources_.size();
    JobHandles h = q.build(graph_);
    q.job = h.job;
    RegisterJob(h.job);
    AddIngestion(h.source, q.ingestion, q.event_time_delay);
    if (h.source_right.valid()) {
      AddIngestion(h.source_right, q.ingestion, q.event_time_delay);
    }
    for (std::size_t i = first_source; i < sources_.size(); ++i) {
      PumpSource(i);
    }
    if (pumped_sources_ < sources_.size()) pumped_sources_ = sources_.size();
    if (q.until > q.at) {
      events_.Schedule(q.until, [this, job = h.job] { RemoveQueryNow(job); });
    }
  });
  return ticket;
}

std::optional<JobId> Cluster::ScheduledJob(int ticket) const {
  CAMEO_EXPECTS(ticket >= 0 &&
                static_cast<std::size_t>(ticket) < scheduled_.size());
  return scheduled_[static_cast<std::size_t>(ticket)]->job;
}

void Cluster::RemoveQueryNow(JobId job) {
  if (!graph_.query_live(job)) return;  // idempotent under scripted overlap
  std::vector<OperatorId> ops = graph_.RemoveQuery(job);
  // Purge with accounting: backlog of an abruptly departing tenant is
  // discarded, never silently lost (conservation: enqueued = dispatched +
  // purged at quiescence; messages_purged() reads the stats so purges an
  // active mailbox defers to its owner's release are counted too).
  runtime_->RetireOperators(ops);
}

void Cluster::At(SimTime t, std::function<void()> fn) {
  events_.Schedule(t, std::move(fn));
}

void Cluster::PumpSource(std::size_t idx) {
  SourceState& s = sources_[idx];
  if (!graph_.query_live(graph_.Get(s.op).job())) return;  // tenant left
  auto next = s.process->Next(rng_);
  if (!next) return;
  events_.Schedule(next->time, [this, idx, a = *next] {
    SourceState& src = sources_[idx];
    const Operator& op = graph_.Get(src.op);
    if (!graph_.query_live(op.job())) return;  // removed while scheduled
    const JobSpec& spec = graph_.job(op.job());
    const SimTime t = events_.now();
    LogicalTime p;
    if (spec.time_domain == TimeDomain::kEventTime) {
      // Prefer the generator's explicit stream progress (batching clients
      // stamp interval boundaries); otherwise assume a constant event delay.
      p = a.logical >= 0 ? a.logical : t - src.event_time_delay;
    } else {
      p = t;  // ingestion time: logical time is the arrival clock
    }
    if (p <= src.last_logical) p = src.last_logical + 1;  // in-order channel
    src.last_logical = p;
    SourceEvent e{.p = p, .t = t};
    auto tb = token_buckets_.find(src.op);
    if (tb != token_buckets_.end()) {
      TokenBucket::Token token = tb->second.TryAcquire(t);
      e.has_token = token.granted;
      e.token_tag = token.tag;
      e.token_interval = token.interval_id;
    }
    EventBatch batch;
    if (src.sampler) {
      batch.progress = p;
      src.sampler->Fill(batch, a.tuples, p, src.key_rng);
    } else {
      batch = EventBatch::Synthetic(a.tuples, p);
    }
    Deliver(SourceMessage(latency_, converter(src.op), op, spec, e,
                          NextMessageId(), std::move(batch)),
            WorkerId{});
    PumpSource(idx);
  });
}

void Cluster::Deliver(Message m, WorkerId producer) {
  ++messages_delivered_;
  const int shard = runtime_->Enqueue(std::move(m), producer, events_.now());
  KickIdleWorkers(shard);
}

shard::ReceiveKind Cluster::HandleFrame(int shard) {
  Message msg;
  shard::WireReply reply;
  const shard::ReceiveKind kind =
      runtime_->ReceiveOne(shard, events_.now(), msg, reply);
  if (kind == shard::ReceiveKind::kMessage) {
    Deliver(std::move(msg), WorkerId{});
  } else if (kind == shard::ReceiveKind::kReply) {
    converter(reply.sender).ProcessCtxFromReply(reply.from, reply.rc);
  }
  return kind;
}

void Cluster::ReceiveShardFrame(int shard) {
  if (chaos_mode_) {
    // Faults decouple send events from deliveries (drops, spikes, parked
    // reorders, session holds): a poll may yield zero or several frames.
    DrainShardFrames(shard);
    return;
  }
  // Clean path: one receive event per transport Send, scheduled at the
  // frame's modeled delivery time -- so by the time the last same-timestamp
  // event fires, every due frame has been popped; a dry poll would be a
  // conservation bug.
  const bool handled = HandleFrame(shard) != shard::ReceiveKind::kNone;
  CAMEO_CHECK(handled && "scheduled receive found no due frame");
}

void Cluster::DrainShardFrames(int shard) {
  while (HandleFrame(shard) != shard::ReceiveKind::kNone) {
  }
}

void Cluster::SessionPump(int shard) {
  pump_deliveries_.clear();
  const SimTime deadline =
      runtime_->ServiceSession(shard, events_.now(), &pump_deliveries_);
  for (const auto& [peer, at] : pump_deliveries_) {
    const SimTime when = std::max(at, events_.now());
    events_.Schedule(when, [this, peer] { ReceiveShardFrame(peer); });
  }
  // Drain our own inbox: flushes parked fault-transport frames and anything
  // that became deliverable while no receive event was scheduled (e.g. the
  // end of a stall window).
  DrainShardFrames(shard);
  SimTime next = events_.now() + kChaosPumpTick;
  if (deadline < next) next = std::max(deadline, events_.now() + 1);
  if (next <= pump_until_) {
    events_.Schedule(next, [this, shard] { SessionPump(shard); });
  } else {
    pump_active_[static_cast<std::size_t>(shard)] = false;
  }
}

void Cluster::KickIdleWorkers(int shard) {
  // Kick every idle worker of the shard: slot-based scheduling pins
  // operators to specific workers, so only the owning worker can serve a
  // given message. A kicked worker that finds nothing simply goes idle
  // again. Workers of other shards are never kicked -- their schedulers
  // hold no new work.
  //
  // One event sweeps this call's kicks in index order. Per-worker events at
  // the same timestamp would carry consecutive sequence numbers, so nothing
  // could run between them: the sweep keeps the schedule exactly. It visits
  // only the workers kicked here; a worker whose `kicked` flag an earlier
  // call set is served by that call's (earlier) sweep.
  const std::size_t begin =
      static_cast<std::size_t>(shard) * options_.workers;
  std::bitset<Scheduler::kMaxWorkers> kicked;
  for (int i = 0; i < options_.workers; ++i) {
    WorkerState& ws = workers_[begin + static_cast<std::size_t>(i)];
    if (ws.busy || ws.kicked) continue;
    ws.kicked = true;
    kicked.set(static_cast<std::size_t>(i));
  }
  if (kicked.none()) return;
  events_.Schedule(events_.now(), [this, begin, kicked] {
    for (int i = 0; i < options_.workers; ++i) {
      if (!kicked.test(static_cast<std::size_t>(i))) continue;
      TryDispatch(WorkerId{static_cast<std::int64_t>(begin) + i});
    }
  });
}

void Cluster::TryDispatch(WorkerId w) {
  WorkerState& ws = workers_[static_cast<std::size_t>(w.value)];
  ws.kicked = false;
  if (ws.busy) return;
  Scheduler& sched = runtime_->scheduler(runtime_->ShardOfWorker(w));
  // The sim is single-threaded: with nothing pending there is nothing to
  // claim, and an empty DequeueBatch changes no scheduler state (Orleans's
  // steal order is fixed at construction, see OrleansScheduler).
  if (sched.pending() == 0) return;
  batch_scratch_.clear();
  exec_scratch_.clear();
  if (sched.DequeueBatch(runtime_->LocalWorker(w), events_.now(),
                         batch_scratch_) == 0) {
    return;
  }

  // The whole activation (claim-and-drain batch, one operator) executes as
  // one busy period: per-message costs are sampled up front in dispatch
  // order, the operator switch cost is charged once.
  const OperatorId target = batch_scratch_.front().target;
  const Operator& op = graph_.Get(target);
  Duration total = 0;
  for (Message& m : batch_scratch_) {
    Duration exec = op.cost_model().Sample(m.batch.size(), rng_);
    if (options_.sim.straggler_prob > 0 &&
        rng_.Chance(options_.sim.straggler_prob)) {
      exec = static_cast<Duration>(static_cast<double>(exec) *
                                   options_.sim.straggler_factor);
    }
    exec_scratch_.push_back(exec);
    total += exec;
  }
  if (!(ws.last_op == target)) total += options_.sim.switch_cost;
  ws.busy = true;
  ws.last_op = target;
  utilization_.AddBusy(w, total);
  for (const Message& m : batch_scratch_) {
    timeline_.Record(
        {events_.now(), target, op.stage(), op.job(), m.progress()});
  }
  const SimTime dispatch_time = events_.now();
  if (batch_scratch_.size() == 1) {
    // Single-message fast path: the Message rides inline in the event
    // closure (fits EventQueue's inline buffer -- no allocation) and the
    // schedule is bit-identical to the pre-batching dispatcher.
    auto done = [this, w, m = std::move(batch_scratch_.front()),
                 dispatch_time, exec = exec_scratch_.front()]() mutable {
      const OperatorId t = m.target;
      CompleteMessage(w, std::move(m), dispatch_time, exec);
      FinishActivation(w, t);
    };
    static_assert(sizeof(done) <= EventQueue::kActionCapacity,
                  "completion closure outgrew the inline event buffer; the "
                  "common sim path would heap-allocate every event");
    events_.Schedule(events_.now() + total, std::move(done));
    return;
  }
  // Batched path: the messages move into a pooled DispatchBatch whose
  // vectors are recycled activation to activation.
  DispatchBatch b =
      RecycleStash<DispatchBatch>::Global().Take().value_or(DispatchBatch{});
  b.msgs.clear();
  b.execs.clear();
  std::swap(b.msgs, batch_scratch_);
  std::swap(b.execs, exec_scratch_);
  events_.Schedule(events_.now() + total,
                   [this, w, b = std::move(b), dispatch_time]() mutable {
                     const OperatorId t = b.msgs.front().target;
                     for (std::size_t i = 0; i < b.msgs.size(); ++i) {
                       CompleteMessage(w, std::move(b.msgs[i]), dispatch_time,
                                       b.execs[i]);
                     }
                     b.msgs.clear();
                     b.execs.clear();
                     RecycleStash<DispatchBatch>::Global().Put(std::move(b));
                     FinishActivation(w, t);
                   });
}

void Cluster::CompleteMessage(WorkerId w, Message m, SimTime dispatch_time,
                              Duration exec_cost) {
  StepHooks hooks{*this, w, runtime_->ShardOf(m.target), dispatch_time,
                  exec_cost};
  RunMessageStep(StepTables{graph_, profiler_, emitted_, rng_}, hooks, m,
                 converter(m.target), *runtime_->policy_of(m.target));
}

void Cluster::FinishActivation(WorkerId w, OperatorId op) {
  runtime_->scheduler(runtime_->ShardOfWorker(w))
      .OnComplete(op, runtime_->LocalWorker(w), events_.now());
  WorkerState& ws = workers_[static_cast<std::size_t>(w.value)];
  ws.busy = false;
  TryDispatch(w);
}

void Cluster::Run(SimTime until) {
  for (std::size_t i = pumped_sources_; i < sources_.size(); ++i) {
    PumpSource(i);
  }
  pumped_sources_ = sources_.size();
  if (chaos_mode_) {
    pump_until_ = until;
    for (int s = 0; s < options_.shards; ++s) {
      if (pump_active_[static_cast<std::size_t>(s)]) continue;
      pump_active_[static_cast<std::size_t>(s)] = true;
      events_.Schedule(events_.now() + kChaosPumpTick,
                       [this, s] { SessionPump(s); });
    }
  }
  events_.RunUntil(until);
  utilization_.SetSpan(until);
  utilization_.SetWorkerCount(options_.workers * options_.shards);
}

}  // namespace cameo
