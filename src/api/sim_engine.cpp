#include "api/sim_engine.h"

#include <utility>

#include "common/check.h"

namespace cameo {

namespace {

/// The query's arrival factory, or an immediately-exhausted one for
/// definitions without an IngestSpec (the scripted splice path always
/// registers ingestion state, so an idle process stands in).
ArrivalProcessFactory IngestOrIdle(const QueryDef& def) {
  if (def.has_ingest()) return MakeArrivalFactory(def.ingest());
  return [](int) { return std::make_unique<ReplayTrace>(std::vector<Arrival>{}); };
}

Duration IngestDelay(const QueryDef& def) {
  return def.has_ingest() ? def.ingest().event_time_delay : 0;
}

}  // namespace

SimEngine::SimEngine(EngineOptions options) : Engine(std::move(options)) {}

QueryHandle SimEngine::Submit(const QueryDef& def) {
  QueryHandle q;
  q.name = def.name();
  if (cluster_ == nullptr) {
    // Staged: compile into the staging topology now so the handles are
    // usable immediately; ingestion attaches at materialization.
    q.handles = def.Build(staging_);
    PendingAction a(def);
    a.handles = q.handles;
    pending_.push_back(std::move(a));
    return q;
  }
  // Live submission joins at the current virtual time through the scripted
  // path (which registers converters/latency/seeds on the spot).
  return Submit(cluster_->now(), 0, def);
}

QueryHandle SimEngine::Submit(SimTime at, SimTime until, const QueryDef& def) {
  QueryHandle q;
  q.name = def.name();
  q.ticket = static_cast<int>(cluster_tickets_.size());
  cluster_tickets_.push_back(-1);
  PendingAction a(def);
  a.scripted = true;
  a.at = at;
  a.until = until;
  a.engine_ticket = q.ticket;
  if (cluster_ == nullptr) {
    pending_.push_back(std::move(a));
    return q;
  }
  cluster_tickets_[static_cast<std::size_t>(q.ticket)] =
      cluster_->ScheduleQuery(a.at, a.until, a.def.Builder(),
                              IngestOrIdle(a.def), IngestDelay(a.def));
  return q;
}

void SimEngine::Materialize() {
  if (cluster_ != nullptr) return;
  cluster_ = std::make_unique<Cluster>(options_, std::move(staging_));
  // Replay the staged actions in submission order: ingestion attachments
  // first-come-first-attached, scripted queries scheduled with their
  // original relative order (event-queue ties break by insertion).
  for (PendingAction& a : pending_) {
    if (a.scripted) {
      cluster_tickets_[static_cast<std::size_t>(a.engine_ticket)] =
          cluster_->ScheduleQuery(a.at, a.until, a.def.Builder(),
                                  IngestOrIdle(a.def), IngestDelay(a.def));
      continue;
    }
    if (!a.def.has_ingest()) continue;
    const IngestSpec& spec = a.def.ingest();
    ArrivalProcessFactory factory = MakeArrivalFactory(spec);
    cluster_->AddIngestion(a.handles.source, factory, spec.event_time_delay,
                           spec.key_sampler);
    if (a.handles.source_right.valid()) {
      cluster_->AddIngestion(a.handles.source_right, factory,
                             spec.event_time_delay, spec.key_sampler);
    }
  }
  pending_.clear();
}

void SimEngine::RunFor(Duration d) {
  CAMEO_EXPECTS(d >= 0);
  Materialize();
  horizon_ += d;
  cluster_->Run(horizon_);
}

JobId SimEngine::ResolveJob(const QueryHandle& q) const {
  if (q.handles.job.valid()) return q.handles.job;
  CAMEO_EXPECTS(q.ticket >= 0 &&
                static_cast<std::size_t>(q.ticket) < cluster_tickets_.size());
  int ct = cluster_tickets_[static_cast<std::size_t>(q.ticket)];
  CAMEO_EXPECTS(ct >= 0 && cluster_ != nullptr);
  std::optional<JobId> job = cluster_->ScheduledJob(ct);
  CAMEO_EXPECTS(job.has_value());
  return *job;
}

std::optional<JobId> SimEngine::ScheduledJob(const QueryHandle& q) const {
  if (q.handles.job.valid()) return q.handles.job;
  if (q.ticket < 0 || cluster_ == nullptr) return std::nullopt;
  int ct = cluster_tickets_[static_cast<std::size_t>(q.ticket)];
  if (ct < 0) return std::nullopt;
  return cluster_->ScheduledJob(ct);
}

void SimEngine::Remove(const QueryHandle& q) {
  Materialize();  // a staged query may be removed before the run starts
  cluster_->RemoveQueryNow(ResolveJob(q));
}

SampleStats SimEngine::Latency(const QueryHandle& q) const {
  CAMEO_EXPECTS(cluster_ != nullptr);
  return cluster_->latency().Latency(ResolveJob(q));
}

double SimEngine::SuccessRate(const QueryHandle& q) const {
  CAMEO_EXPECTS(cluster_ != nullptr);
  return cluster_->latency().SuccessRate(ResolveJob(q));
}

DataflowGraph& SimEngine::graph() {
  return cluster_ != nullptr ? cluster_->graph() : staging_;
}

SchedulerStats SimEngine::sched_stats() const {
  CAMEO_EXPECTS(cluster_ != nullptr);
  return cluster_->sched_stats();  // merged across shards
}

RunResult SimEngine::Summarize(SimTime span) {
  Materialize();
  return SummarizeRun(*cluster_, span);
}

Cluster& SimEngine::cluster() {
  Materialize();
  return *cluster_;
}

}  // namespace cameo
