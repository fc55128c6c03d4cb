#include "core/progress_map.h"

#include <algorithm>
#include <cmath>

namespace cameo {

void ProgressMap::Update(LogicalTime p, SimTime t) {
  if (domain_ == TimeDomain::kIngestionTime) return;
  model_.Observe(p, t);
}

SimTime ProgressMap::MapToTime(LogicalTime p_mf, SimTime t_fallback) const {
  if (domain_ == TimeDomain::kIngestionTime) {
    // Logical time is assigned from the arrival clock, same unit as SimTime.
    return static_cast<SimTime>(p_mf);
  }
  if (!model_.Ready()) return t_fallback;
  double predicted = model_.Predict(static_cast<double>(p_mf));
  // A frontier can never complete before the message that references it was
  // produced; clamp against pathological fits from skewed observations.
  predicted = std::max(predicted, static_cast<double>(t_fallback));
  return static_cast<SimTime>(predicted);
}

}  // namespace cameo
