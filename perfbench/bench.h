// Shared pieces of the repository benchmark (perfbench): command-line
// arguments, the result report, the tenant pipelines every workload runs, the
// seeded input feeds and arrival schedules, and the scoring of sink outputs
// against a reference computed from those inputs.
//
// The benchmark drives the library only through its public entry points and
// adds no instrumentation inside src/: everything timed here is timed from
// outside, around calls into a layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataflow/graph.h"
#include "ops/window_agg.h"
#include "state/keyed_counter.h"

namespace perfbench {

using cameo::Duration;
using cameo::JobId;
using cameo::LogicalTime;
using cameo::OperatorId;
using cameo::SimTime;

inline std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Collects metrics and correctness verdicts; prints them as the final JSON
/// line (`correct`, `attempted`, `failed`, `metrics`), preceded by one info
/// line recording the seed, nproc and diagnostics. The final line carries
/// the end-to-end metrics, or with --trace 1 the per-layer ones; the other
/// set, if any, goes to the info line.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}
  /// An end-to-end metric.
  void Metric(const std::string& name, double value, const std::string& unit) {
    Add(e2e_, name, value, unit);
  }
  /// A per-layer metric.
  void LayerMetric(const std::string& name, double value,
                   const std::string& unit) {
    Add(layer_, name, value, unit);
  }
  void Info(const std::string& key, double value);
  /// A failed check makes the run incorrect and is explained on stderr.
  void Check(bool ok, const std::string& what);
  void Count(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  void Print(const Args& args) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void Add(std::vector<Entry>& to, const std::string& name, double value,
           const std::string& unit);

  bool trace_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Entry> e2e_;
  std::vector<Entry> layer_;
  std::vector<std::pair<std::string, double>> info_;
};

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (0 for an empty sample).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Tenants.
// ---------------------------------------------------------------------------

/// Shape of one tenant query.
///  - LS: sources -> Shuffle -> WindowAgg(sum) x mid -> Shuffle -> final
///    WindowAgg(sum) -> sink; one output per window: the window's value sum.
///  - BA: sources -> KeyBy -> KeyedCounter x mid -> Shuffle -> per-key
///    WindowAgg(sum) merge -> sink; one output per window: per-key counts,
///    whose total is the number of rows in the window.
struct TenantSpec {
  bool ls = true;
  int sources = 2;
  int mid = 2;
  Duration window = 0;
  Duration constraint = 0;
  std::int64_t msgs_per_sec = 0;  // per source
  int rows = 0;                   // rows per batch
};

/// One window result as the sink saw it. `emit` is the sink invocation time
/// on the engine's clock (wall or virtual).
struct WindowOutput {
  LogicalTime end = 0;
  double value = 0;
  SimTime emit = 0;
};

/// Terminal operator that records every window result it receives.
class CaptureSink final : public cameo::Operator {
 public:
  explicit CaptureSink(std::string name);
  void Invoke(const cameo::Message& m, cameo::InvokeContext& ctx) override;
  bool is_sink() const override { return true; }
  const std::vector<WindowOutput>& outputs() const { return outputs_; }

 private:
  std::vector<WindowOutput> outputs_;
};

/// Wraps an operator and records, per invocation, either how long the message
/// waited between enqueue and dispatch or how long the invocation ran. Only
/// the traced runs build probes; each probe is touched by one worker at a
/// time (operator exclusivity), so its samples need no lock.
class Probe final : public cameo::Operator {
 public:
  enum class Kind { kWait, kInvoke };
  Probe(std::unique_ptr<cameo::Operator> inner, Kind kind);
  void Invoke(const cameo::Message& m, cameo::InvokeContext& ctx) override;
  bool is_sink() const override { return inner_->is_sink(); }
  bool is_source() const override { return inner_->is_source(); }
  Kind kind() const { return kind_; }
  const std::vector<Duration>& samples() const { return samples_; }
  void Clear() { samples_.clear(); }

 private:
  std::unique_ptr<cameo::Operator> inner_;
  Kind kind_;
  std::vector<Duration> samples_;
};

/// A tenant spliced into a graph, with the handles the benchmark reads.
struct Tenant {
  TenantSpec spec;
  JobId job;
  std::vector<OperatorId> sources;
  CaptureSink* sink = nullptr;
  std::vector<cameo::KeyedCounterOp*> counters;  // BA only
  std::vector<Probe*> probes;                    // traced runs only
};

/// Adds one tenant per spec to `g` (named LS<i> / BA<i>). With `probe` set,
/// LS operators are wrapped in wait probes and BA counter/merge operators in
/// invoke probes.
std::vector<Tenant> AddTenants(cameo::DataflowGraph& g,
                               const std::vector<TenantSpec>& specs,
                               bool probe);

// ---------------------------------------------------------------------------
// Inputs: seeded feeds and arrival schedules.
// ---------------------------------------------------------------------------

/// Pre-generated rows of one source replica: `slots` batches of `rows` rows.
/// Batch k (k >= 1) uses slot (k - 1) % slots. LS keys are uniform over 1k
/// keys with value 1 + key % 64; BA keys are Zipf(0.9) over 1M keys with
/// value 1, so a BA window's per-key counts sum to its row count.
struct Feed {
  bool ls = true;
  int rows = 0;
  std::vector<std::uint32_t> keys;
  std::vector<double> sums;  // per slot

  std::int64_t slots() const { return static_cast<std::int64_t>(sums.size()); }
  double Sum(std::int64_t k) const { return sums[Slot(k)]; }
  double Value(std::uint32_t key) const { return ls ? 1.0 + key % 64 : 1.0; }
  /// Appends batch k's rows, all stamped with logical time `t`.
  void Fill(std::int64_t k, LogicalTime t, cameo::EventBatch& b) const;

 private:
  std::size_t Slot(std::int64_t k) const {
    return static_cast<std::size_t>((k - 1) % slots());
  }
};

/// One scheduled source batch. Source replica (tenant, source) sends batch k
/// carrying logical time t_k = k * 1e9 / msgs_per_sec (so batches land on
/// every window boundary) at due offset t_k + phase, where the phase is a
/// fixed per-source delay below one period.
struct Entry {
  SimTime due = 0;  // offset from the schedule's start
  LogicalTime t = 0;
  std::uint16_t tenant = 0;
  std::uint16_t source = 0;
  std::uint32_t k = 0;
};

/// All pre-generated input of a workload: tenants, their feeds, phases and
/// the merged due-ordered schedule of `span` logical nanoseconds.
struct Inputs {
  std::vector<TenantSpec> specs;
  std::vector<std::vector<Feed>> feeds;      // [tenant][source]
  std::vector<std::vector<Duration>> phase;  // [tenant][source]
  std::vector<Entry> schedule;
  Duration span = 0;
};

/// Generates every feed and the schedule from `seed`. LS feeds hold at most
/// `ls_slots` batches (cycled: LS keys feed no state); BA feeds hold every
/// batch of the span, so BA state sees the full key stream.
Inputs MakeInputs(const std::vector<TenantSpec>& specs, Duration span,
                  std::int64_t ls_slots, std::uint64_t seed);

inline Duration Period(const TenantSpec& s) {
  return cameo::kSecond / s.msgs_per_sec;
}

/// Logical times of measured phases start at kBase; warm-up replays the
/// schedule's first kWarmup of due offsets at logical base 0, so no window
/// mixes warm-up and measured rows.
inline constexpr LogicalTime kBase = cameo::kSecond;
inline constexpr Duration kWarmup = cameo::Millis(100);

/// Schedule entry `e` as a batch at logical time base + e.t.
cameo::EventBatch MakeBatch(const Inputs& in, const Entry& e, LogicalTime base);

/// Closed-loop backlog round: a quarter second of schedule is sent back to
/// back, then drained. Long enough that thread hand-offs at the round edges
/// are a negligible share of it.
inline constexpr Duration kBacklogRound = cameo::Millis(250);

/// Replays the entries whose due offset lies in [from, to) in closed-loop
/// rounds: the entries of each `round` of due offsets are sent back to back,
/// then the system is drained.
template <typename Send, typename Drain>
void RunRounds(const Inputs& in, Duration from, Duration to, Duration round,
               Send&& send, Drain&& drain) {
  std::size_t i = 0;
  while (i < in.schedule.size() && in.schedule[i].due < from) ++i;
  for (Duration end = from + round; end - round < to; end += round) {
    const Duration stop = end < to ? end : to;
    for (; i < in.schedule.size() && in.schedule[i].due < stop; ++i) {
      send(in.schedule[i]);
    }
    drain();
  }
}

// ---------------------------------------------------------------------------
// Scoring.
// ---------------------------------------------------------------------------

/// Reference result of one window, built from the batches that were sent.
struct WindowRef {
  double value = 0;
  SimTime last_due = cameo::kTimeMin;  // due time of the last contributing batch
};
using WindowBook = std::map<LogicalTime, WindowRef>;

/// Folds one sent batch into its tenant's reference book.
void Book(WindowBook& book, const TenantSpec& spec, LogicalTime t, double sum,
          SimTime due);

struct Score {
  std::vector<double> ls_ms;  // latency of measured LS outputs
  std::vector<double> ba_ms;  // latency of measured BA outputs
  std::int64_t ls_measured = 0;  // measured LS windows (missing count as misses)
  std::int64_t ls_met = 0;
  std::int64_t windows = 0;  // every expected window
  std::int64_t missing = 0;
  std::int64_t wrong = 0;  // value differs from the reference
  std::int64_t extra = 0;  // output for a window nothing was sent to
};

/// Compares a tenant's sink outputs with its reference book. Every window is
/// checked for correctness; windows ending in [lo, hi] also contribute a
/// latency sample (emit - last_due) and a met/missed verdict.
void ScoreTenant(const Tenant& tenant, const WindowBook& book, LogicalTime lo,
                 LogicalTime hi, Score& score);

/// Adds the latency metrics and correctness checks of `score` to `report`.
void ReportScore(const Score& score, Report& report);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

void RunTenantsWall(const Args& args, Report& report);
void RunShardsSim(const Args& args, Report& report);

}  // namespace perfbench
