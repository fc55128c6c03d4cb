#include "metrics/latency_recorder.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {

void LatencyRecorder::RegisterJob(JobId job, Duration latency_constraint,
                                  LogicalTime output_window,
                                  LogicalTime output_slide) {
  CAMEO_EXPECTS(jobs_.find(job) == jobs_.end());
  CAMEO_EXPECTS(output_slide >= 0 && output_window >= output_slide);
  JobState s;
  s.constraint = latency_constraint;
  s.window = output_window;
  s.slide = output_slide;
  jobs_.emplace(job, std::move(s));
}

LatencyRecorder::JobState& LatencyRecorder::state(JobId job) {
  auto it = jobs_.find(job);
  CAMEO_EXPECTS(it != jobs_.end());
  return it->second;
}

const LatencyRecorder::JobState& LatencyRecorder::state(JobId job) const {
  auto it = jobs_.find(job);
  CAMEO_EXPECTS(it != jobs_.end());
  return it->second;
}

void LatencyRecorder::OnSourceEvent(JobId job, LogicalTime p, SimTime arrival) {
  JobState& s = state(job);
  if (s.slide == 0) return;  // per-message jobs do not bucket arrivals
  // Inclusive-right windows: the event at logical time p falls in the slide
  // bucket ending at ceil(p / S) * S, indexed by ceil(p / S).
  std::int64_t bucket = (p + s.slide - 1) / s.slide;
  SimTime& last = s.last_arrival[bucket];
  last = std::max(last, arrival);
}

std::optional<SimTime> LatencyRecorder::LastArrivalFor(
    JobId job, LogicalTime window_end) const {
  const JobState& s = state(job);
  if (s.slide == 0) {
    return window_end;  // caller passes the event arrival time directly
  }
  // Window (B - W, B] spans slide buckets (B - W)/S + 1 .. B/S inclusive.
  SimTime last = kTimeMin;
  std::int64_t from = (window_end - s.window) / s.slide + 1;
  std::int64_t to = window_end / s.slide;
  for (std::int64_t b = from; b <= to; ++b) {
    auto it = s.last_arrival.find(b);
    if (it != s.last_arrival.end()) last = std::max(last, it->second);
  }
  if (last == kTimeMin) return std::nullopt;  // empty window
  return last;
}

void LatencyRecorder::RecordOutput(JobId job, SimTime emit, Duration latency) {
  JobState& s = state(job);
  s.latency.Add(static_cast<double>(latency));
  ++s.outputs;
  if (latency <= s.constraint) ++s.met;
  s.series.emplace_back(emit, latency);
}

void LatencyRecorder::OnSinkOutput(JobId job, LogicalTime window_end,
                                   SimTime emit) {
  auto last = LastArrivalFor(job, window_end);
  if (!last.has_value()) return;  // empty window: no latency defined
  RecordOutput(job, emit, emit - *last);
}

void LatencyRecorder::MergeFrom(const LatencyRecorder& other) {
  for (const auto& [id, o] : other.jobs_) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      jobs_.emplace(id, o);
      continue;
    }
    JobState& s = it->second;
    CAMEO_EXPECTS(s.constraint == o.constraint && s.window == o.window &&
                  s.slide == o.slide);
    for (const auto& [bucket, arrival] : o.last_arrival) {
      SimTime& last = s.last_arrival[bucket];
      last = std::max(last, arrival);
    }
    s.latency.Merge(o.latency);
    s.outputs += o.outputs;
    s.met += o.met;
    s.sink_tuples += o.sink_tuples;
    s.processed_tuples += o.processed_tuples;
    // Both sides are individually time-sorted (each shard appends in its
    // own emit order), so an in-place merge keeps this linear.
    auto merge_series = [](auto& into, const auto& from) {
      auto mid = static_cast<std::ptrdiff_t>(into.size());
      into.insert(into.end(), from.begin(), from.end());
      std::inplace_merge(into.begin(), into.begin() + mid, into.end());
    };
    merge_series(s.series, o.series);
    merge_series(s.processed_series, o.processed_series);
  }
}

void LatencyRecorder::OnSinkTuples(JobId job, std::int64_t tuples) {
  state(job).sink_tuples += tuples;
}

std::vector<std::int64_t> LatencyRecorder::Bucketize(
    const std::vector<std::pair<SimTime, std::int64_t>>& series,
    Duration bucket, SimTime span) {
  CAMEO_EXPECTS(bucket > 0 && span > 0);
  std::vector<std::int64_t> out(
      static_cast<std::size_t>((span + bucket - 1) / bucket), 0);
  for (const auto& [t, n] : series) {
    auto idx = static_cast<std::size_t>(t / bucket);
    if (idx < out.size()) out[idx] += n;
  }
  return out;
}

void LatencyRecorder::OnProcessed(JobId job, std::int64_t tuples,
                                  SimTime now) {
  JobState& s = state(job);
  s.processed_tuples += tuples;
  s.processed_series.emplace_back(now, tuples);
}

std::vector<std::int64_t> LatencyRecorder::ProcessedBuckets(
    JobId job, Duration bucket, SimTime span) const {
  return Bucketize(state(job).processed_series, bucket, span);
}

std::int64_t LatencyRecorder::processed(JobId job) const {
  return state(job).processed_tuples;
}

const SampleStats& LatencyRecorder::Latency(JobId job) const {
  return state(job).latency;
}

double LatencyRecorder::SuccessRate(JobId job) const {
  const JobState& s = state(job);
  if (s.outputs == 0) return 0;
  return static_cast<double>(s.met) / static_cast<double>(s.outputs);
}

std::uint64_t LatencyRecorder::outputs(JobId job) const {
  return state(job).outputs;
}

std::int64_t LatencyRecorder::sink_tuples(JobId job) const {
  return state(job).sink_tuples;
}

Duration LatencyRecorder::constraint(JobId job) const {
  return state(job).constraint;
}

const std::vector<std::pair<SimTime, Duration>>& LatencyRecorder::Series(
    JobId job) const {
  return state(job).series;
}

std::vector<JobId> LatencyRecorder::jobs() const {
  std::vector<JobId> out;
  out.reserve(jobs_.size());
  for (const auto& [id, s] : jobs_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cameo
