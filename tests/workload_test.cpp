// Unit tests for src/workload: arrival generators, trace synthesis, and the
// tenant/query builders.
#include <gtest/gtest.h>

#include "ops/window_agg.h"
#include "ops/windowed_join.h"
#include "workload/generators.h"
#include "workload/tenants.h"
#include "workload/churn.h"
#include "workload/keyed.h"
#include "workload/trace.h"

namespace cameo {
namespace {

std::vector<Arrival> DrainAll(ArrivalProcess& p, Rng& rng,
                              std::size_t cap = 1000000) {
  std::vector<Arrival> out;
  while (auto a = p.Next(rng)) {
    out.push_back(*a);
    if (out.size() >= cap) break;
  }
  return out;
}

TEST(ConstantRateTest, ProducesExactRate) {
  Rng rng(1);
  ConstantRate p(10.0, 100, 0, Seconds(5));
  auto arrivals = DrainAll(p, rng);
  EXPECT_EQ(arrivals.size(), 50u);
  for (const Arrival& a : arrivals) EXPECT_EQ(a.tuples, 100);
}

TEST(ConstantRateTest, TimesAreMonotone) {
  Rng rng(1);
  ConstantRate p(7.0, 1, 0, Seconds(3));
  auto arrivals = DrainAll(p, rng);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LT(arrivals[i - 1].time, arrivals[i].time);
  }
}

TEST(ConstantRateTest, AlignedModeStampsBoundaries) {
  Rng rng(1);
  ConstantRate p(1.0, 100, 0, Seconds(5), Millis(30), /*aligned=*/true);
  auto arrivals = DrainAll(p, rng);
  ASSERT_GE(arrivals.size(), 4u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].logical, Seconds(static_cast<std::int64_t>(i) + 1));
    EXPECT_EQ(arrivals[i].time, arrivals[i].logical + Millis(30));
  }
}

TEST(ConstantRateTest, UnalignedHasNoLogicalStamp) {
  Rng rng(1);
  ConstantRate p(1.0, 100, 0, Seconds(2));
  auto a = p.Next(rng);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->logical, -1);
}

TEST(PoissonArrivalsTest, MeanRateApproximatelyCorrect) {
  Rng rng(2);
  PoissonArrivals p(50.0, 1, 0, Seconds(100));
  auto arrivals = DrainAll(p, rng);
  // 50 msg/s over 100 s = 5000 expected; Poisson sd ~ 71.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 5000.0, 300.0);
}

TEST(PoissonArrivalsTest, TimesMonotoneNonDecreasing) {
  Rng rng(3);
  PoissonArrivals p(100.0, 1, 0, Seconds(10));
  auto arrivals = DrainAll(p, rng);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].time, arrivals[i].time);
  }
}

TEST(ParetoBurstTest, MeanVolumeApproximatelyTarget) {
  Rng rng(4);
  const double mean = 10000;
  ParetoBurst p(mean, 2.5, 4, kSecond, 0, Seconds(2000));
  auto arrivals = DrainAll(p, rng);
  double total = 0;
  for (const Arrival& a : arrivals) total += static_cast<double>(a.tuples);
  double per_interval = total / 2000.0;
  EXPECT_NEAR(per_interval, mean, mean * 0.2);
}

TEST(ParetoBurstTest, VolumeIsBursty) {
  Rng rng(5);
  ParetoBurst p(1000, 1.3, 1, kSecond, 0, Seconds(2000));
  std::vector<double> volumes;
  while (auto a = p.Next(rng)) volumes.push_back(static_cast<double>(a->tuples));
  ASSERT_GT(volumes.size(), 100u);
  std::sort(volumes.begin(), volumes.end());
  double median = volumes[volumes.size() / 2];
  double max = volumes.back();
  EXPECT_GT(max, 20 * median) << "alpha=1.3 tail should produce big spikes";
}

TEST(ParetoBurstTest, MessagesSpreadWithinInterval) {
  Rng rng(6);
  ParetoBurst p(1000, 2.0, 4, kSecond, 0, Seconds(3));
  auto arrivals = DrainAll(p, rng);
  ASSERT_GE(arrivals.size(), 8u);
  EXPECT_EQ(arrivals[1].time - arrivals[0].time, kSecond / 4);
}

TEST(ReplayTraceTest, ReplaysExactly) {
  Rng rng(7);
  std::vector<Arrival> in = {{Millis(1), 10, -1}, {Millis(5), 20, -1}};
  ReplayTrace p(in);
  auto out = DrainAll(p, rng);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].time, Millis(1));
  EXPECT_EQ(out[1].tuples, 20);
}

// ---------------- Trace synthesis ----------------

TEST(TraceTest, MeanRatesRespectSkewRatio) {
  SkewedTraceSpec spec;
  spec.sources = 8;
  spec.skew_ratio = 200;
  spec.total_tuples_per_sec = 10000;
  auto rates = TraceMeanRates(spec);
  ASSERT_EQ(rates.size(), 8u);
  EXPECT_NEAR(rates.back() / rates.front(), 200.0, 1e-6);
  double sum = 0;
  for (double r : rates) sum += r;
  EXPECT_NEAR(sum, 10000.0, 1e-6);
}

TEST(TraceTest, NoSkewMeansEqualRates) {
  SkewedTraceSpec spec;
  spec.sources = 4;
  spec.skew_ratio = 1.0;
  spec.total_tuples_per_sec = 4000;
  auto rates = TraceMeanRates(spec);
  for (double r : rates) EXPECT_NEAR(r, 1000.0, 1e-6);
}

TEST(TraceTest, SynthesizedTraceMatchesTotalVolume) {
  SkewedTraceSpec spec;
  spec.sources = 4;
  spec.length = Seconds(400);
  spec.total_tuples_per_sec = 5000;
  spec.skew_ratio = 10;
  spec.burst_alpha = 2.5;
  Rng rng(8);
  auto trace = SynthesizeSkewedTrace(spec, rng);
  ASSERT_EQ(trace.size(), 4u);
  double total = 0;
  for (const auto& src : trace) {
    for (const Arrival& a : src) total += static_cast<double>(a.tuples);
  }
  double per_sec = total / 400.0;
  EXPECT_NEAR(per_sec, 5000.0, 5000.0 * 0.25);
}

TEST(TraceTest, IdleProbabilityCreatesGaps) {
  SkewedTraceSpec spec;
  spec.sources = 1;
  spec.length = Seconds(1000);
  spec.total_tuples_per_sec = 100;
  spec.idle_prob = 0.5;
  spec.msgs_per_interval = 1;
  Rng rng(9);
  auto trace = SynthesizeSkewedTrace(spec, rng);
  // ~50% of 1000 intervals should emit.
  EXPECT_NEAR(static_cast<double>(trace[0].size()), 500.0, 80.0);
}

TEST(TraceTest, ArrivalsMonotonePerSource) {
  SkewedTraceSpec spec;
  spec.sources = 3;
  spec.length = Seconds(50);
  spec.skew_ratio = 50;
  Rng rng(10);
  auto trace = SynthesizeSkewedTrace(spec, rng);
  for (const auto& src : trace) {
    for (std::size_t i = 1; i < src.size(); ++i) {
      EXPECT_LE(src[i - 1].time, src[i].time);
    }
  }
}

TEST(TraceTest, VolumeDistributionIsLongTailed) {
  // Fig. 2(a) shape: top 10% of streams carry the majority of the data.
  auto volumes = SynthesizeVolumeDistribution(100, 1.5, 1e6);
  ASSERT_EQ(volumes.size(), 100u);
  double total = 0, top10 = 0;
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    total += volumes[i];
    if (i < 10) top10 += volumes[i];
  }
  EXPECT_NEAR(total, 1e6, 1.0);
  EXPECT_GT(top10 / total, 0.5) << "top 10% should dominate";
}

// ---------------- Tenant builders ----------------

TEST(TenantsTest, AggregationJobHasFourStages) {
  DataflowGraph g;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  JobHandles h = BuildAggregationJob(g, spec);
  EXPECT_EQ(h.stages.size(), 4u);
  EXPECT_EQ(g.stage(h.source).parallelism, spec.sources);
  EXPECT_EQ(g.stage(h.sink).parallelism, 1);
  EXPECT_EQ(g.job(h.job).latency_constraint, Millis(800));
  EXPECT_EQ(g.job(h.job).output_window, Seconds(1));
  EXPECT_EQ(g.job(h.job).output_slide, Seconds(1));
}

TEST(TenantsTest, ExpectedChannelsWiredFromTopology) {
  DataflowGraph g;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 8;
  spec.aggs = 4;
  JobHandles h = BuildAggregationJob(g, spec);
  // Each pre-agg replica is fed by 8/4 = 2 sharded sources.
  const StageInfo& pre = g.stage(h.stages[1]);
  for (OperatorId op : pre.operators) {
    auto* agg = dynamic_cast<WindowAggOp*>(&g.Get(op));
    ASSERT_NE(agg, nullptr);
  }
  // Final agg is fed by all 4 pre-aggs; verify via a quick end-to-end count:
  const StageInfo& fin = g.stage(h.stages[2]);
  EXPECT_EQ(fin.parallelism, 1);
}

TEST(TenantsTest, JoinJobWiresLeftInputs) {
  DataflowGraph g;
  QuerySpec spec = MakeIpqSpec(4);
  JobHandles h = BuildJoinJob(g, spec);
  ASSERT_TRUE(h.source_right.valid());
  EXPECT_EQ(g.stage(h.source).parallelism, spec.sources);
  EXPECT_EQ(g.stage(h.source_right).parallelism, spec.sources);
}

TEST(TenantsTest, BulkAnalyticsSpecMatchesPaper) {
  QuerySpec ba = MakeBulkAnalyticsSpec("BA0");
  EXPECT_EQ(ba.window, Seconds(10)) << "10 s aggregation windows (§6)";
  EXPECT_EQ(ba.latency_constraint, Seconds(7200)) << "lax constraint (§6.2)";
  QuerySpec ls = MakeLatencySensitiveSpec("LS0");
  EXPECT_EQ(ls.window, Seconds(1)) << "1 s windows (§6)";
  EXPECT_EQ(ls.latency_constraint, Millis(800)) << "800 ms target (§6.2)";
  EXPECT_EQ(ls.tuples_per_msg, 1000) << "1000 events/msg (§6)";
}

TEST(TenantsTest, IpqSpecsDifferentiate) {
  EXPECT_EQ(MakeIpqSpec(1).slide, MakeIpqSpec(1).window) << "IPQ1 tumbling";
  EXPECT_LT(MakeIpqSpec(2).slide, MakeIpqSpec(2).window) << "IPQ2 sliding";
  EXPECT_TRUE(MakeIpqSpec(3).per_key) << "IPQ3 grouped";
  EXPECT_FALSE(MakeIpqSpec(1).per_key);
}

// ---------------- Tenant churn scripts ----------------

TEST(TenantChurnTest, ScriptIsDeterministicAndOrdered) {
  TenantChurnSpec spec;
  spec.arrivals_per_sec = 0.5;
  spec.end = Seconds(120);
  auto gen = [&] {
    Rng rng(77);
    return GenerateTenantChurn(spec, rng);
  };
  TenantChurnScript a = gen();
  TenantChurnScript b = gen();
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].arrive, b.tenants[i].arrive);
    EXPECT_EQ(a.tenants[i].depart, b.tenants[i].depart);
    EXPECT_EQ(a.tenants[i].tenant, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(a.tenants[i].arrive, a.tenants[i - 1].arrive);
    }
    EXPECT_GE(a.tenants[i].depart - a.tenants[i].arrive, spec.min_lifetime);
  }
  EXPECT_GT(a.tenants.size(), 20u) << "0.5/s over 120s";
}

TEST(TenantChurnTest, ArrivalRateAndLifetimesMatchSpec) {
  TenantChurnSpec spec;
  spec.arrivals_per_sec = 1.0;
  spec.end = Seconds(2000);
  spec.mean_lifetime = Seconds(10);
  spec.lifetime_alpha = 2.5;  // light enough tail for a stable sample mean
  spec.min_lifetime = Millis(100);
  spec.max_concurrent = 1 << 20;  // effectively off for this check
  Rng rng(5);
  TenantChurnScript s = GenerateTenantChurn(spec, rng);
  // Poisson(1/s) over 2000s: ~2000 tenants.
  EXPECT_GT(s.tenants.size(), 1700u);
  EXPECT_LT(s.tenants.size(), 2300u);
  double mean = 0;
  for (const TenantInterval& ti : s.tenants) {
    mean += static_cast<double>(ti.depart - ti.arrive);
  }
  mean /= static_cast<double>(s.tenants.size());
  EXPECT_NEAR(mean, static_cast<double>(spec.mean_lifetime),
              0.35 * static_cast<double>(spec.mean_lifetime));
}

TEST(TenantChurnTest, AdmissionControlCapsConcurrency) {
  TenantChurnSpec spec;
  spec.arrivals_per_sec = 5.0;     // heavy pressure...
  spec.mean_lifetime = Seconds(30);  // ...with long lifetimes
  spec.end = Seconds(200);
  spec.max_concurrent = 4;
  Rng rng(9);
  TenantChurnScript s = GenerateTenantChurn(spec, rng);
  EXPECT_LE(s.peak_concurrent, 4);
  for (const TenantInterval& ti : s.tenants) {
    EXPECT_LE(s.LiveAt(ti.arrive), 4);
  }
}

TEST(KeyedTest, ZipfKeysRejectsNonPositiveCountBeforeAllocating) {
  // A negative count must fail the precondition, not be cast to a huge size.
  EXPECT_DEATH(ZipfKeys(-1, 1.0), "num_keys >= 1");
  EXPECT_DEATH(ZipfKeys(0, 1.0), "num_keys >= 1");
}

}  // namespace
}  // namespace cameo
