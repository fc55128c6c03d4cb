// Tenant churn scripts (paper §2): the workload analysis shows tenant
// streams arriving and departing continuously, so a realistic multi-tenant
// run is not a fixed job set but a birth/death process. This module
// synthesizes deterministic churn scripts -- Poisson tenant arrivals with
// Pareto (heavy-tailed) lifetimes -- that both execution backends replay:
// `sim::Cluster::ScheduleQuery` in virtual time, and the churn tests/
// benchmarks against `ThreadRuntime::AddQuery`/`RemoveQuery` in wall-clock
// time.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace cameo {

struct TenantChurnSpec {
  /// Poisson arrival rate of new tenant queries.
  double arrivals_per_sec = 0.2;
  /// Pareto lifetime: mean and tail exponent (alpha > 1 so the mean exists).
  /// Scale is derived so the mean lifetime is `mean_lifetime`.
  Duration mean_lifetime = Seconds(20);
  double lifetime_alpha = 1.5;
  /// Floor on a tenant's lifetime (a query always lives long enough to
  /// produce at least one window).
  Duration min_lifetime = Seconds(2);
  /// Script horizon: arrivals are drawn in [start, end); a lifetime is
  /// truncated at `end` (the tenant simply outlives the run).
  SimTime start = 0;
  SimTime end = Seconds(60);
  /// Arrivals while this many tenants are alive are dropped (admission
  /// control), keeping the script within a bounded working set.
  int max_concurrent = 64;
};

/// One tenant's scripted membership interval.
struct TenantInterval {
  int tenant = 0;        // dense index, assigned in arrival order
  SimTime arrive = 0;
  SimTime depart = 0;    // > end means "never departs within the script"
};

struct TenantChurnScript {
  std::vector<TenantInterval> tenants;  // sorted by arrival time
  /// Peak number of simultaneously live tenants.
  int peak_concurrent = 0;

  /// Tenants alive at `t` (arrive <= t < depart).
  int LiveAt(SimTime t) const;
};

/// Draws a churn script from `spec`. Deterministic for a given Rng state.
TenantChurnScript GenerateTenantChurn(const TenantChurnSpec& spec, Rng& rng);

}  // namespace cameo
