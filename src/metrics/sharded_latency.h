// Per-worker LatencyRecorder shards, merged on read (DESIGN.md §1).
//
// The wall-clock runtime records latency from many threads at once. Arrival
// bookkeeping (which slide bucket last saw an event) must be globally visible
// to whichever worker emits the window, so it lives in one ingest-side
// recorder behind a small mutex touched at ingest/output rate -- not per
// message. Worker-side accumulation (source processed volume, sink samples,
// counters, series) goes into the invoking worker's shard under a per-shard
// mutex that only that worker normally touches, so it is uncontended at
// steady state; the lock exists because dynamic multi-tenancy registers
// hot-added queries into every shard while workers are live, and readers
// merge shards mid-run.
// Shard slots are pre-allocated for the scheduler's whole worker-id range,
// so growing the pool needs no publication protocol at all. Readers merge
// ingest + shards into a plain LatencyRecorder; reads are exact once workers
// are quiescent (after Drain()).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "metrics/latency_recorder.h"

namespace cameo {

class ShardedLatencyRecorder {
  struct Shard {
    std::mutex mu;
    LatencyRecorder rec;
  };

 public:
  /// Matches Scheduler::kMaxWorkers: one shard per possible worker id.
  static constexpr int kMaxShards = 256;

  /// `worker_shards` is the initially active worker count (validated
  /// against kMaxShards); all shard slots are allocated up front so the
  /// runtime can grow its pool later without touching this class.
  explicit ShardedLatencyRecorder(int worker_shards);

  /// Declares a job on the ingest recorder and every shard. Safe while
  /// workers are recording (query hot-add).
  void RegisterJob(JobId job, Duration latency_constraint,
                   LogicalTime output_window, LogicalTime output_slide);

  // ---- ingest side (any thread; serialized on the ingest mutex) ----
  void OnSourceEvent(JobId job, LogicalTime p, SimTime arrival);

  /// Worker side: one Writer per worker index, recording into that worker's
  /// shard under a per-shard mutex (uncontended unless a hot-add
  /// registration or a merge read races it). It has LatencyRecorder's
  /// per-message signatures, which the shared message step records through.
  class Writer {
   public:
    void OnProcessed(JobId job, std::int64_t tuples, SimTime now) {
      std::lock_guard lock(shard_.mu);
      shard_.rec.OnProcessed(job, tuples, now);
    }
    void OnSinkOutput(JobId job, LogicalTime window_end, SimTime emit);
    void OnSinkTuples(JobId job, std::int64_t tuples) {
      std::lock_guard lock(shard_.mu);
      shard_.rec.OnSinkTuples(job, tuples);
    }

   private:
    friend class ShardedLatencyRecorder;
    Writer(ShardedLatencyRecorder& rec, Shard& shard)
        : rec_(rec), shard_(shard) {}
    ShardedLatencyRecorder& rec_;
    Shard& shard_;
  };
  Writer writer(int shard) {
    return {*this, *shards_[static_cast<std::size_t>(shard)]};
  }

  // ---- merged read view ----
  // Accessors return by value: every call re-merges the shards, so returned
  // containers must not alias internal state. Callers binding
  // `const SampleStats&` get lifetime extension. Intended for quiescent reads
  // (after Drain()); concurrent use merely yields a slightly stale snapshot.
  LatencyRecorder Merged() const;
  SampleStats Latency(JobId job) const { return Merged().Latency(job); }
  double SuccessRate(JobId job) const { return Merged().SuccessRate(job); }
  std::uint64_t outputs(JobId job) const { return Merged().outputs(job); }
  std::int64_t sink_tuples(JobId job) const {
    return Merged().sink_tuples(job);
  }
  std::int64_t processed(JobId job) const { return Merged().processed(job); }
  std::vector<std::pair<SimTime, Duration>> Series(JobId job) const {
    return Merged().Series(job);
  }
  std::vector<std::int64_t> ProcessedBuckets(JobId job, Duration bucket,
                                             SimTime span) const {
    return Merged().ProcessedBuckets(job, bucket, span);
  }

 private:
  mutable std::mutex ingest_mu_;
  LatencyRecorder ingest_;  // arrivals
  std::vector<std::unique_ptr<Shard>> shards_;  // processed + sink samples
};

}  // namespace cameo
