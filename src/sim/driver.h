// Run summaries: condenses a finished Cluster run into the per-job rows the
// paper's figures report (median/p95/p99/max latency, stdev, success rate,
// throughput) plus cluster-level utilization and scheduler statistics.
#pragma once

#include <string>
#include <vector>

#include "sim/cluster.h"

namespace cameo {

struct JobResult {
  JobId job;
  std::string name;
  std::uint64_t outputs = 0;
  double median_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double stdev_ms = 0;
  double max_ms = 0;
  double success_rate = 0;  // fraction of outputs meeting the constraint
  /// Tuples arriving at the sink per second (output volume).
  double throughput_tuples_per_sec = 0;
  /// Tuples processed by the job's source stage per second (served
  /// ingestion volume; the paper's throughput metric).
  double processed_tuples_per_sec = 0;
};

struct RunResult {
  std::vector<JobResult> jobs;
  double utilization = 0;
  SchedulerStats sched;
  std::uint64_t messages = 0;
  /// Per-policy statistics (cold starts, demotions, lottery draws, ...),
  /// snapshotted from the cluster's SchedulingPolicy at summary time.
  std::vector<PolicyCounter> policy_counters;

  /// Merged latency percentile across jobs whose name starts with `prefix`
  /// (e.g. all "LS*" jobs of a control group).
  double GroupPercentile(const std::string& prefix, double q) const;
  double GroupSuccessRate(const std::string& prefix) const;
  double GroupThroughput(const std::string& prefix) const;

  // Retained per-group samples for percentiles/CDFs.
  std::vector<std::pair<std::string, SampleStats>> samples;
};

RunResult SummarizeRun(Cluster& cluster, SimTime span);

}  // namespace cameo
