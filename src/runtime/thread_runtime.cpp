#include "runtime/thread_runtime.h"

#include "common/check.h"
#include "core/message_step.h"

namespace cameo {

namespace {

void SpinFor(Duration d) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(d);
  // Sleep for the bulk, spin the last stretch for accuracy. Keeping the spin
  // tail short matters for thread-scaling runs: sleeping workers overlap
  // freely even when oversubscribed, spinning ones contend for cores.
  if (d > Millis(1)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d - Micros(300)));
  }
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

}  // namespace

/// ThreadRuntime's hooks into the shared message step (core/message_step.h):
/// wall-clock timing around Invoke, atomic message ids, tracked enqueue,
/// replies applied directly, and the worker's latency shard.
struct ThreadRuntime::StepHooks {
  ThreadRuntime& rt;
  WorkerId w;
  JobState& js;
  Rng& rng;
  ShardedLatencyRecorder::Writer rec;

  SimTime InvokeStart() { return rt.Now(); }
  StepClock InvokeEnd(const Operator& op, std::int64_t rows, SimTime start) {
    if (rt.config_.emulate_cost) SpinFor(op.cost_model().Sample(rows, rng));
    const SimTime end = rt.Now();
    return {.cost = end - start, .now = end, .dequeued = start};
  }
  MessageId NextId() { return rt.NextMessageId(); }
  void Deliver(Message md) { rt.EnqueueTracked(std::move(md), w, js); }
  void Reply(OperatorId sender, OperatorId from, const ReplyContext& rc) {
    rt.converter(sender).ProcessCtxFromReply(from, rc);
  }
  ShardedLatencyRecorder::Writer& latency() { return rec; }
};

ThreadRuntime::ThreadRuntime(RuntimeConfig config, DataflowGraph graph)
    : config_(config),
      graph_(std::move(graph)),
      policy_(MakePolicy(config.policy, PolicyOptions{.seed = config.seed})),
      scheduler_(
          MakeScheduler(config.scheduler, config.num_workers, config.sched)),
      latency_(config.num_workers),
      start_(std::chrono::steady_clock::now()) {
  CAMEO_EXPECTS(config.num_workers >= 1 &&
                config.num_workers <= Scheduler::kMaxWorkers);
  policy_->BindCostReader(&profiler_);
  std::lock_guard control(control_mu_);
  for (JobId job : graph_.job_ids()) RegisterJobTables(job);
}

ThreadRuntime::~ThreadRuntime() { Stop(); }

void ThreadRuntime::RegisterJobTables(JobId job) {
  const JobSpec& spec = graph_.job(job);
  latency_.RegisterJob(job, spec.latency_constraint, spec.output_window,
                       spec.output_slide);
  ConverterOptions options;
  options.use_query_semantics = config_.use_query_semantics;
  options.time_domain = spec.time_domain;
  std::vector<OperatorId> ops = graph_.OperatorsOf(job);
  converters_.InsertAll(ops, [&](OperatorId) {
    return std::make_unique<ContextConverter>(policy_.get(), options);
  });
  for (OperatorId op : ops) {
    // Pre-create the profiler entry so hot-path Record/Estimate calls never
    // take its slow path concurrently.
    profiler_.Seed(op, 0);
    if (graph_.Get(op).is_source()) {
      sources_.GetOrCreate(
          op, [&] { return std::make_unique<SourceState>(spec); });
    }
  }
  job_states_.GetOrCreate(job, [] { return std::make_unique<JobState>(); });
}

JobHandles ThreadRuntime::AddQuery(const QueryBuilder& build) {
  std::lock_guard control(control_mu_);
  JobHandles h = graph_.AddQuery(build);
  // Tables are fully registered before the id escapes, so the first Ingest
  // (which is what lets messages reach the new operators) finds everything.
  RegisterJobTables(h.job);
  return h;
}

void ThreadRuntime::RemoveQuery(JobId job) {
  std::lock_guard control(control_mu_);
  JobState* js = job_states_.Find(job);
  CAMEO_EXPECTS(js != nullptr);
  CAMEO_EXPECTS(js->live.load(std::memory_order_seq_cst));
  // 1. Gate: producers that read live after this flip back off; producers
  // that already passed the gate hold an inflight increment we wait for.
  js->live.store(false, std::memory_order_seq_cst);
  // 2. Per-job quiesce under everyone else's live traffic.
  {
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait(lock, [js] {
      return js->inflight.load(std::memory_order_seq_cst) == 0;
    });
  }
  // 3. Retire: mark the graph, park the mailboxes at kRetired, purge lazy
  // ready entries. The quiesce guarantees the backlog was executed, so the
  // purge finds nothing -- removal in this backend never drops a message.
  std::vector<OperatorId> ops = graph_.RemoveQuery(job);
  std::int64_t purged = scheduler_->RetireOperators(ops);
  CAMEO_CHECK(purged == 0 && "graceful removal purged accepted messages");
}

bool ThreadRuntime::QueryLive(JobId job) const {
  JobState* js = job_states_.Find(job);
  return js != nullptr && js->live.load(std::memory_order_seq_cst);
}

ContextConverter& ThreadRuntime::converter(OperatorId op) {
  ContextConverter* c = converters_.Find(op);
  CAMEO_EXPECTS(c != nullptr);
  return *c;
}

SimTime ThreadRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void ThreadRuntime::Start() {
  CAMEO_EXPECTS(threads_.empty());
  start_ = std::chrono::steady_clock::now();
  stop_.store(false, std::memory_order_seq_cst);
  std::lock_guard control(control_mu_);
  target_workers_.store(config_.num_workers, std::memory_order_seq_cst);
  for (int i = 0; i < config_.num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void ThreadRuntime::SetWorkerCount(int workers) {
  CAMEO_EXPECTS(workers >= 1 && workers <= Scheduler::kMaxWorkers);
  std::lock_guard control(control_mu_);
  config_.num_workers = workers;
  // Retarget placement first (and also before Start(): a statically pinned
  // scheduler sized at construction would otherwise keep placing work on
  // slots that will never have a worker).
  scheduler_->SetWorkerTarget(workers);
  if (threads_.empty()) return;  // not started yet: Start() spawns to target
  int cur = static_cast<int>(threads_.size());
  if (workers == cur) return;
  target_workers_.store(workers, std::memory_order_seq_cst);
  if (workers > cur) {
    for (int i = cur; i < workers; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
    return;
  }
  wake_cv_.notify_all();
  for (int i = workers; i < cur; ++i) threads_[static_cast<std::size_t>(i)].join();
  threads_.resize(static_cast<std::size_t>(workers));
  // Second pass recovers any work the exiting workers parked on their
  // private structures after the first retarget.
  scheduler_->SetWorkerTarget(workers);
}

int ThreadRuntime::worker_count() const {
  std::lock_guard control(control_mu_);
  return threads_.empty() ? config_.num_workers
                          : static_cast<int>(threads_.size());
}

void ThreadRuntime::Drain() {
  std::unique_lock lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_seq_cst) == 0;
  });
}

void ThreadRuntime::Stop() {
  stop_.store(true, std::memory_order_seq_cst);
  wake_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ThreadRuntime::EnqueueTracked(Message m, WorkerId producer,
                                   JobState& js) {
  inflight_.fetch_add(1, std::memory_order_seq_cst);
  js.inflight.fetch_add(1, std::memory_order_seq_cst);
  scheduler_->Enqueue(std::move(m), producer, Now());
  wake_cv_.notify_one();
}

void ThreadRuntime::FinishOne(JobState& js) {
  bool job_done = js.inflight.fetch_sub(1, std::memory_order_seq_cst) == 1;
  bool all_done = inflight_.fetch_sub(1, std::memory_order_seq_cst) == 1;
  if (job_done || all_done) {
    // Take the drain lock so a waiter cannot check the predicate and miss
    // this notification in between.
    std::lock_guard lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

bool ThreadRuntime::Ingest(OperatorId source, std::int64_t tuples,
                           std::optional<LogicalTime> p) {
  return IngestBatch(source, EventBatch::Synthetic(tuples, p.value_or(Now())));
}

bool ThreadRuntime::IngestBatch(OperatorId source, EventBatch batch) {
  const Operator& op = graph_.Get(source);
  CAMEO_EXPECTS(op.is_source());
  const JobSpec& spec = graph_.job(op.job());
  JobState* js = job_states_.Find(op.job());
  SourceState* src = sources_.Find(source);
  CAMEO_EXPECTS(js != nullptr && src != nullptr);
  // Ingest gate (see JobState): the increment doubles as a guard that keeps
  // RemoveQuery's quiesce from completing under our feet.
  js->inflight.fetch_add(1, std::memory_order_seq_cst);
  if (!js->live.load(std::memory_order_seq_cst)) {
    // Back out of the guard; if RemoveQuery is already waiting, this release
    // may be the zero it needs, so notify.
    if (js->inflight.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      std::lock_guard lock(drain_mu_);
      drain_cv_.notify_all();
    }
    return false;
  }
  SimTime t = Now();
  // Serialize per source channel only: progress must be monotone and the
  // source's mailbox must receive batches in progress order, so the lock
  // covers the enqueue as well.
  std::lock_guard lock(src->mu);
  if (batch.progress <= src->last_progress) {
    batch.progress = src->last_progress + 1;
  }
  src->last_progress = batch.progress;
  SourceEvent e{.p = batch.progress, .t = t};
  src->tokens.Fill(e);
  Message m = SourceMessage(latency_, converter(source), op, spec, e,
                            NextMessageId(), std::move(batch));
  // The guard increment above already counted this message for the job;
  // only the global counter still needs its increment.
  inflight_.fetch_add(1, std::memory_order_seq_cst);
  scheduler_->Enqueue(std::move(m), WorkerId{}, Now());
  wake_cv_.notify_one();
  return true;
}

void ThreadRuntime::WorkerLoop(int index) {
  WorkerId w{index};
  Rng rng(config_.seed + static_cast<std::uint64_t>(index) * 7919);
  // Activation batch (claim-and-drain contract): all messages target the
  // same operator and the claim is held until the OnComplete below. The
  // scratch vectors retain capacity, keeping the loop allocation-free.
  std::vector<Message> batch;
  std::vector<EmittedBatch> outs;
  std::vector<DataflowGraph::Delivery> routed;
  const StepTables tables{graph_, profiler_, outs, routed, rng};

  while (true) {
    if (stop_.load(std::memory_order_seq_cst) ||
        index >= target_workers_.load(std::memory_order_seq_cst)) {
      return;
    }
    batch.clear();
    if (scheduler_->DequeueBatch(w, Now(), batch) == 0) {
      std::unique_lock lock(wake_mu_);
      if (stop_.load(std::memory_order_seq_cst) ||
          index >= target_workers_.load(std::memory_order_seq_cst)) {
        return;
      }
      wake_cv_.wait_for(lock, std::chrono::microseconds(200));
      continue;
    }

    // Invocations run with no locks held: the scheduler's operator
    // exclusivity guarantees this worker is the sole owner of the operator's
    // state, profiler entry and send-path converter use, for the whole
    // activation. Edges never cross jobs (Connect checks), so every
    // downstream message belongs to the activation's job state.
    const OperatorId target = batch.front().target;
    JobState* js = job_states_.Find(graph_.Get(target).job());
    CAMEO_EXPECTS(js != nullptr);
    StepHooks hooks{*this, w, *js, rng, latency_.writer(index)};
    ContextConverter& conv = converter(target);
    for (Message& m : batch) RunMessageStep(tables, hooks, m, conv, *policy_);
    scheduler_->OnComplete(target, w, Now());
    // Only after OnComplete and output routing: the counters hit zero iff
    // the dataflow (respectively the job) is quiescent.
    for (std::size_t i = 0; i < batch.size(); ++i) FinishOne(*js);
  }
}

}  // namespace cameo
