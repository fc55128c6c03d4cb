// Execution-cost profiler (paper §4.2.1: "C_oM and C_path can be calculated
// by profiling"; §5.3: RCs carry "processing cost (e.g., CPU time) ...
// obtained via profiling").
//
// The runtime reports each invocation's measured cost; the profiler keeps an
// exponentially weighted moving average per operator. Estimates can be
// perturbed with N(0, sigma) noise to reproduce the paper's measurement-
// inaccuracy study (Fig. 16).
//
// Thread safety: entries live in a dense id table (common/id_table.h) so
// Seed() for a hot-added query's operators can run concurrently with workers
// calling Record/Estimate on other operators. A single entry is only ever
// touched under its operator's actor-model exclusivity; the perturbation RNG
// is a simulator-only feature (single-threaded backend).
#pragma once

#include "common/id_table.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"

namespace cameo {

/// Read-only view of per-operator cost estimates. Decouples consumers that
/// only ever *read* costs — notably the SJF policy's direct read path
/// (core/policies.h) — from the profiler's recording half, and lets tests
/// substitute a fixed table. Implementations must be safe to call
/// concurrently with recording.
class CostReader {
 public:
  virtual ~CostReader() = default;

  /// Current estimate of C_o for `op`; 0 when never seen (cold start).
  virtual Duration EstimateCost(OperatorId op) const = 0;
};

class CostProfiler : public CostReader {
 public:
  /// EWMA weight of the newest sample.
  static constexpr double kSmoothing = 0.25;
  /// `noise_seed` seeds the perturbation noise (SetPerturbation).
  explicit CostProfiler(std::uint64_t noise_seed = 7) : noise_rng_(noise_seed) {}

  /// Records one measured invocation cost.
  void Record(OperatorId op, Duration measured);

  /// Seeds a cold-start estimate (e.g., from static critical-path analysis);
  /// overwritten as real measurements arrive.
  void Seed(OperatorId op, Duration estimate);

  /// Current estimate of C_o for `op`; 0 when never seen. When perturbation
  /// is enabled, the returned estimate carries N(0, sigma) noise, clamped at
  /// zero (a cost estimate cannot be negative).
  Duration Estimate(OperatorId op) const;

  /// CostReader: the policy-facing alias of Estimate().
  Duration EstimateCost(OperatorId op) const override { return Estimate(op); }

  /// Enables Fig. 16-style perturbation of reported estimates.
  void SetPerturbation(Duration sigma) { perturb_sigma_ = sigma; }

  std::uint64_t samples(OperatorId op) const;

 private:
  struct Entry {
    double ewma = 0;
    std::uint64_t count = 0;
  };

  Entry& entry(OperatorId op);

  Duration perturb_sigma_ = 0;
  IdTable<OperatorId, Entry> entries_;
  mutable Rng noise_rng_;
};

}  // namespace cameo
