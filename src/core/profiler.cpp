#include "core/profiler.h"

#include <algorithm>
#include <memory>

#include "common/check.h"

namespace cameo {

CostProfiler::Entry& CostProfiler::entry(OperatorId op) {
  return entries_.GetOrCreate(op, [] { return std::make_unique<Entry>(); });
}

void CostProfiler::Record(OperatorId op, Duration measured) {
  CAMEO_EXPECTS(measured >= 0);
  Entry& e = entry(op);
  if (e.count == 0) {
    e.ewma = static_cast<double>(measured);
  } else {
    e.ewma = kSmoothing * static_cast<double>(measured) +
             (1.0 - kSmoothing) * e.ewma;
  }
  ++e.count;
}

void CostProfiler::Seed(OperatorId op, Duration estimate) {
  CAMEO_EXPECTS(estimate >= 0);
  Entry& e = entry(op);
  if (e.count == 0) e.ewma = static_cast<double>(estimate);
}

Duration CostProfiler::Estimate(OperatorId op) const {
  const Entry* e = entries_.Find(op);
  double base = e == nullptr ? 0.0 : e->ewma;
  if (perturb_sigma_ > 0) {
    base += noise_rng_.Normal(0.0, static_cast<double>(perturb_sigma_));
  }
  return std::max<Duration>(0, static_cast<Duration>(base));
}

std::uint64_t CostProfiler::samples(OperatorId op) const {
  const Entry* e = entries_.Find(op);
  return e == nullptr ? 0 : e->count;
}

}  // namespace cameo
