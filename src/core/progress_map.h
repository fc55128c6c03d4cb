// PROGRESSMAP (paper §4.3, step 2): maps frontier progress p_MF to frontier
// time t_MF — the physical time by which the triggering logical time is
// expected to have been observed at all sources.
//
//  - Ingestion-time domain: logical time *is* the arrival timestamp, so the
//    map is the identity.
//  - Event-time domain: the map is learned online as t = alpha * p + gamma
//    over a running window of (p_M, t_M) observations (paper: "linear fit
//    with running window of historical p_MF's towards their respective
//    t_MF's"), in O(1) per update and per query from exact running sums
//    (core/linear_regression.h). Until the fit is ready the map falls back
//    to the conservative estimate t_MF = t_M (treat windowed operators as
//    regular, §4.3 end).
#pragma once

#include "common/time.h"
#include "core/linear_regression.h"
#include "dataflow/graph.h"

namespace cameo {

class ProgressMap {
 public:
  /// Observations in the event-time fit's running window.
  static constexpr std::size_t kFitWindow = 64;

  explicit ProgressMap(TimeDomain domain)
      : domain_(domain), model_(kFitWindow) {}

  /// Feeds an observed (logical, physical) pair; no-op for ingestion time.
  void Update(LogicalTime p, SimTime t);

  /// Predicted physical time at which progress `p_mf` completes. `t_fallback`
  /// is the message's own physical time, used when no model is available.
  SimTime MapToTime(LogicalTime p_mf, SimTime t_fallback) const;

  TimeDomain domain() const { return domain_; }
  const OnlineLinearRegression& model() const { return model_; }

 private:
  TimeDomain domain_;
  OnlineLinearRegression model_;
};

// The fit's exact __int128 sums are proven overflow-free up to this window.
static_assert(ProgressMap::kFitWindow <= OnlineLinearRegression::kMaxWindow);

}  // namespace cameo
