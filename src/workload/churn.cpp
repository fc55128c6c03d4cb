#include "workload/churn.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {

int TenantChurnScript::LiveAt(SimTime t) const {
  int live = 0;
  for (const TenantInterval& ti : tenants) {
    if (ti.arrive <= t && t < ti.depart) ++live;
  }
  return live;
}

TenantChurnScript GenerateTenantChurn(const TenantChurnSpec& spec, Rng& rng) {
  CAMEO_EXPECTS(spec.arrivals_per_sec > 0);
  CAMEO_EXPECTS(spec.lifetime_alpha > 1.0);
  CAMEO_EXPECTS(spec.mean_lifetime > 0 && spec.min_lifetime > 0);
  CAMEO_EXPECTS(spec.end > spec.start);
  CAMEO_EXPECTS(spec.max_concurrent >= 1);

  // Pareto scale giving the requested mean: E = alpha * x_min / (alpha - 1).
  const double x_min = static_cast<double>(spec.mean_lifetime) *
                       (spec.lifetime_alpha - 1.0) / spec.lifetime_alpha;
  const double mean_gap = static_cast<double>(kSecond) / spec.arrivals_per_sec;

  TenantChurnScript script;
  // Departure times of currently-admitted tenants, for admission control.
  std::vector<SimTime> live_departs;
  auto t = static_cast<double>(spec.start);
  int next_tenant = 0;
  for (;;) {
    t += rng.Exponential(mean_gap);
    auto arrive = static_cast<SimTime>(t);
    if (arrive >= spec.end) break;
    live_departs.erase(
        std::remove_if(live_departs.begin(), live_departs.end(),
                       [&](SimTime d) { return d <= arrive; }),
        live_departs.end());
    if (static_cast<int>(live_departs.size()) >= spec.max_concurrent) {
      continue;  // admission control: drop the arrival
    }
    auto lifetime = static_cast<Duration>(
        rng.Pareto(spec.lifetime_alpha, x_min));
    lifetime = std::max(lifetime, spec.min_lifetime);
    TenantInterval ti;
    ti.tenant = next_tenant++;
    ti.arrive = arrive;
    ti.depart = arrive + lifetime;
    live_departs.push_back(ti.depart);
    script.peak_concurrent = std::max(
        script.peak_concurrent, static_cast<int>(live_departs.size()));
    script.tenants.push_back(ti);
  }
  return script;
}

}  // namespace cameo
