// Figure 11, grown into a scheduling-policy tournament. The original figure
// compares LLF vs EDF vs SJF through the pluggable-policy context API
// (§5.3); this bench sweeps *every* registered policy — the sweep derives
// its roster from ValidPolicyNames(), so a policy added to the registry in
// core/policies.cpp shows up here automatically and roster drift (the old
// hard-coded {"LLF","EDF","SJF"} list silently omitting TokenFair) is
// structurally impossible.
//
// Panels:
//   (left)  single-query latency by policy, IPQ 1-4 (the paper's Fig. 11)
//   (right) multi-query latency by policy under near-saturation
//   tournament: the full scenario matrix — steady multi-tenant, data skew
//     (fig10), tenant churn (fig17), keyed hot-key (fig_slates) — per
//     policy, reporting deadline-met rate (gated vs checked-in baselines)
//     and p99 per cell, plus each policy's internal counters.
//
// Paper expectation (Fig. 11): SJF is consistently worse than LLF/EDF under
// load (except lightly-loaded IPQ4 where queueing is absent); EDF and LLF
// perform comparably because operator execution time is small and
// consistent. The tournament checks the SJF-worse-under-load ordering on
// the steady-state cell and prints a verdict.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"
#include "core/policies.h"

namespace cameo {
namespace {

void SingleQuery(bench::BenchContext& ctx) {
  PrintFigureBanner("Figure 11 (left)", "single-query latency by policy",
                    "SJF worse than LLF/EDF (except lightly-loaded IPQ4); "
                    "EDF ~ LLF");
  PrintHeaderRow("query", {"policy", "median", "p99"});
  for (int ipq = 1; ipq <= 4; ++ipq) {
    for (const std::string& policy : ValidPolicyNames()) {
      SingleTenantOptions opt;
      opt.ipq = ipq;
      opt.engine.scheduler = SchedulerKind::kCameo;
      opt.engine.policy = policy;
      opt.engine.workers = 2;
      opt.duration = ctx.Dur(Seconds(40));
      opt.engine.seed = 500 + static_cast<std::uint64_t>(ipq) * 13;
      SingleTenantResult r = RunSingleTenant(opt);
      const JobResult& j = r.run.jobs[0];
      PrintRow("IPQ" + std::to_string(ipq),
               {policy, FormatMs(j.median_ms), FormatMs(j.p99_ms)});
      ctx.Metric("IPQ" + std::to_string(ipq) + "." + policy + ".median_ms",
                 j.median_ms);
    }
  }
}

void MultiQuery(bench::BenchContext& ctx) {
  PrintFigureBanner("Figure 11 (right)", "multi-query latency by policy",
                    "same ordering under multi-tenancy");
  PrintHeaderRow("policy", {"LS_med", "LS_p99", "BA_med", "BA_p99"});
  for (const std::string& policy : ValidPolicyNames()) {
    MultiTenantOptions opt;
    opt.engine.scheduler = SchedulerKind::kCameo;
    opt.engine.policy = policy;
    opt.engine.workers = 4;
    opt.duration = ctx.Dur(Seconds(60));
    opt.ls_jobs = 4;
    opt.ba_jobs = 8;
    opt.ba_msgs_per_sec = 35;  // near saturation
    RunResult r = RunMultiTenant(opt);
    PrintRow(policy, {FormatMs(r.GroupPercentile("LS", 50)),
                      FormatMs(r.GroupPercentile("LS", 99)),
                      FormatMs(r.GroupPercentile("BA", 50)),
                      FormatMs(r.GroupPercentile("BA", 99))});
    ctx.Metric("multi." + policy + ".LS_median_ms",
               r.GroupPercentile("LS", 50));
    ctx.Metric("multi." + policy + ".LS_p99_ms", r.GroupPercentile("LS", 99));
  }
}

/// One tournament cell: the run's deadline-met rate and p99 over the
/// scenario's scored job group, plus the policy counters to surface.
struct CellResult {
  double met_rate = 0;
  double p99_ms = 0;
  std::vector<PolicyCounter> counters;
};

CellResult SteadyCell(bench::BenchContext& ctx, const std::string& policy) {
  MultiTenantOptions opt;
  opt.engine.scheduler = SchedulerKind::kCameo;
  opt.engine.policy = policy;
  opt.engine.workers = 4;
  opt.duration = ctx.Dur(Seconds(30), Seconds(3));
  opt.ls_jobs = 4;
  opt.ba_jobs = 8;
  opt.ba_msgs_per_sec = 35;  // near saturation: ordering decides the tail
  RunResult r = RunMultiTenant(opt);
  return {r.GroupSuccessRate("LS"), r.GroupPercentile("LS", 99),
          r.policy_counters};
}

CellResult SkewCell(bench::BenchContext& ctx, const std::string& policy) {
  SkewScenarioOptions opt;
  opt.engine.scheduler = SchedulerKind::kCameo;
  opt.engine.policy = policy;
  opt.duration = ctx.Dur(Seconds(30), Seconds(3));
  RunResult r = RunSkewedScenario(opt);
  // Score across both tenant types: "" prefixes every job name.
  return {r.GroupSuccessRate(""), r.GroupPercentile("", 99),
          r.policy_counters};
}

CellResult ChurnCell(bench::BenchContext& ctx, const std::string& policy) {
  ChurnScenarioOptions opt;
  opt.engine.scheduler = SchedulerKind::kCameo;
  opt.engine.policy = policy;
  opt.engine.workers = 4;
  opt.ba_msgs_per_sec = 9;
  opt.ba_tuples_per_msg = 20000;
  opt.aggs_per_job = 6;
  opt.tenant_constraint = Millis(250);
  opt.duration = ctx.Dur(Seconds(60), Seconds(8));
  opt.churn.end = opt.duration;
  opt.churn.arrivals_per_sec = ctx.smoke ? 0.5 : 0.25;
  opt.churn.mean_lifetime = ctx.smoke ? Seconds(4) : Seconds(20);
  opt.churn.min_lifetime = Seconds(2);
  opt.churn.max_concurrent = 8;
  ChurnScenarioResult r = RunChurnScenario(opt);
  // Scored on the churned tenants ("T<i>"); the BA background is the load.
  return {r.run.GroupSuccessRate("T"), r.run.GroupPercentile("T", 99),
          r.run.policy_counters};
}

CellResult KeyedCell(bench::BenchContext& ctx, const std::string& policy) {
  KeyedScenarioOptions opt;
  opt.engine.scheduler = SchedulerKind::kCameo;
  opt.engine.policy = policy;
  opt.dist = KeyDistribution::kZipf;  // hot keys: the fig_slates stressor
  opt.num_keys = 50'000;
  opt.zipf_s = 1.1;
  opt.counter_per_tuple = Micros(19);
  opt.splits = 4;
  opt.duration = ctx.Dur(Seconds(20), Seconds(3));
  KeyedScenarioResult r = RunKeyedScenario(opt);
  return {r.run.GroupSuccessRate("KEYED"), r.run.GroupPercentile("KEYED", 99),
          r.run.policy_counters};
}

using CellFn = CellResult (*)(bench::BenchContext&, const std::string&);

struct Scenario {
  const char* name;
  CellFn run;
};

void Tournament(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Policy tournament", "deadline-met rate per policy x scenario",
      "deadline-aware policies (LLF/EDF) lead under load; SJF trails them "
      "(Fig. 11); fair-share policies trade tail latency for isolation");
  const Scenario kScenarios[] = {
      {"steady", SteadyCell},
      {"skew", SkewCell},
      {"churn", ChurnCell},
      {"keyed", KeyedCell},
  };
  PrintHeaderRow("scenario", {"policy", "met", "p99", "counters"});
  // met[scenario][policy index], for the verdict below.
  std::vector<std::vector<double>> met;
  const std::vector<std::string>& roster = ValidPolicyNames();
  for (const Scenario& scn : kScenarios) {
    met.emplace_back();
    for (const std::string& policy : roster) {
      CellResult cell = scn.run(ctx, policy);
      met.back().push_back(cell.met_rate);
      std::string counters;
      for (const PolicyCounter& c : cell.counters) {
        if (!counters.empty()) counters += ' ';
        counters += c.name + "=" + std::to_string(c.value);
      }
      PrintRow(scn.name,
               {policy, FormatPct(cell.met_rate), FormatMs(cell.p99_ms),
                counters.empty() ? "-" : counters});
      const std::string key = std::string("tourney.") + scn.name + "." + policy;
      // `_met_rate` keys are the gated tournament statistic (deterministic
      // per seed; compare_baselines.py fails a >15% relative drop). The p99
      // companions use a `.p99_ms` (dot) key on purpose: informational only,
      // since several policies are *expected* to trade tail latency.
      ctx.Metric(key + "_met_rate", cell.met_rate);
      ctx.Metric(key + ".p99_ms", cell.p99_ms);
      for (const PolicyCounter& c : cell.counters) {
        ctx.Metric(key + ".counter." + c.name,
                   static_cast<double>(c.value));
      }
    }
  }

  // Verdict: the paper's Fig. 11 ordering — SJF no better than both LLF and
  // EDF on the loaded steady-state cell (strictly worse in full runs; smoke
  // runs are too short to separate policies reliably, so gate "no better").
  auto index_of = [&](const char* name) {
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (roster[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  const int llf = index_of("LLF"), edf = index_of("EDF"), sjf = index_of("SJF");
  if (llf >= 0 && edf >= 0 && sjf >= 0) {
    const std::vector<double>& steady = met[0];
    const bool ordered =
        steady[sjf] <= steady[llf] && steady[sjf] <= steady[edf];
    std::printf("paper ordering (steady): SJF met %.3f vs LLF %.3f / EDF "
                "%.3f -> %s\n",
                steady[sjf], steady[llf], steady[edf],
                ordered ? "reproduced (SJF trails deadline-aware policies)"
                        : "NOT reproduced");
    ctx.Metric("tourney.verdict.sjf_trails_deadline_aware",
               ordered ? 1.0 : 0.0);
  }
}

void Run(bench::BenchContext& ctx) {
  SingleQuery(ctx);
  MultiQuery(ctx);
  Tournament(ctx);
}

CAMEO_BENCH_REGISTER("fig11_policies", "Figure 11",
                     "policy tournament: every registered policy x scenario "
                     "matrix (steady/skew/churn/keyed)",
                     Run);

}  // namespace
}  // namespace cameo
