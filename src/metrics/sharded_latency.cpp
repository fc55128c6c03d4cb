#include "metrics/sharded_latency.h"

#include "common/check.h"

namespace cameo {

ShardedLatencyRecorder::ShardedLatencyRecorder(int worker_shards) {
  CAMEO_EXPECTS(worker_shards >= 1 && worker_shards <= kMaxShards);
  shards_.reserve(kMaxShards);
  for (int i = 0; i < kMaxShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ShardedLatencyRecorder::RegisterJob(JobId job, Duration latency_constraint,
                                         LogicalTime output_window,
                                         LogicalTime output_slide) {
  {
    std::lock_guard lock(ingest_mu_);
    ingest_.RegisterJob(job, latency_constraint, output_window, output_slide);
  }
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->rec.RegisterJob(job, latency_constraint, output_window,
                           output_slide);
  }
}

void ShardedLatencyRecorder::OnSourceEvent(JobId job, LogicalTime p,
                                           SimTime arrival) {
  std::lock_guard lock(ingest_mu_);
  ingest_.OnSourceEvent(job, p, arrival);
}

void ShardedLatencyRecorder::Writer::OnSinkOutput(JobId job,
                                                  LogicalTime window_end,
                                                  SimTime emit) {
  std::optional<SimTime> last;
  {
    std::lock_guard lock(rec_.ingest_mu_);
    last = rec_.ingest_.LastArrivalFor(job, window_end);
  }
  if (!last.has_value()) return;  // empty window: no latency defined
  std::lock_guard lock(shard_.mu);
  shard_.rec.RecordOutput(job, emit, emit - *last);
}

LatencyRecorder ShardedLatencyRecorder::Merged() const {
  LatencyRecorder merged;
  {
    std::lock_guard lock(ingest_mu_);
    merged.MergeFrom(ingest_);
  }
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    merged.MergeFrom(shard->rec);
  }
  return merged;
}

}  // namespace cameo
