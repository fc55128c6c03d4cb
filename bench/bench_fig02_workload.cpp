// Figure 2: production workload characterization, reproduced from our
// synthetic generators (the production traces are unavailable; DESIGN.md
// documents the substitution). Paper shape:
//  (a) 10% of streams process the majority of the data (long tail);
//  (b) ad-hoc micro-batch scheduling overhead reaches ~80% for short jobs;
//  (c) per-source ingestion varies strongly across sources and time, with
//      second-scale spikes and idle periods.
// It also reports the wall-clock cost of one draw from the Zipf sampler that
// generates the skewed keys (`zipf_1m.ns_per_op`, ungated).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "common/rng.h"
#include "workload/trace.h"

namespace cameo {
namespace {

void VolumeDistribution(bench::BenchContext& ctx) {
  PrintFigureBanner("Figure 2(a)", "per-stream data volume distribution",
                    "top 10% of streams carry the majority of the data");
  auto volumes = SynthesizeVolumeDistribution(100, 1.5, 10e15);  // 10 PB/day
  double total = 0;
  for (double v : volumes) total += v;
  double acc = 0;
  PrintHeaderRow("top_streams", {"cumulative_share"});
  for (int k : {1, 5, 10, 25, 50, 100}) {
    acc = 0;
    for (int i = 0; i < k; ++i) acc += volumes[static_cast<std::size_t>(i)];
    PrintRow(std::to_string(k) + "%", {FormatPct(acc / total)});
    ctx.Metric("volume.top" + std::to_string(k) + "pct_share", acc / total);
  }
}

// Cost of one key draw from Zipf(1M, 0.9), the keyed workloads' hot-key
// distribution. At 1M ranks the shared table is 12 MB, so a draw mostly
// misses the private caches: this is the per-key price of skewed key
// generation.
void ZipfDrawCost(bench::BenchContext& ctx) {
  constexpr int kDraws = 2'000'000;
  const ZipfSampler zipf(1'000'000, 0.9);
  Rng rng(9001);
  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kDraws; ++i) sum += zipf.Sample(rng);
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kDraws;
  std::printf("\nZipf(1M, 0.9) draw: %.1f ns/op (rank sum %llu)\n", ns,
              static_cast<unsigned long long>(sum));
  ctx.Metric("zipf_1m.ns_per_op", ns);
}

void MicroBatchOverhead(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 2(b)", "micro-batch job scheduling overhead",
      "ad-hoc periodic micro-batch jobs pay up to ~80% scheduling overhead; "
      "completion times span 10 s to 1000 s");
  // Model: each periodic micro-batch pays a fixed scheduling + startup cost
  // (containers, JVM/CLR spin-up, state reload) before doing useful work.
  const double startup_s = 8.0;
  PrintHeaderRow("job_work", {"completion", "overhead"});
  for (double work_s : {2.0, 10.0, 30.0, 100.0, 300.0, 1000.0}) {
    double completion = startup_s + work_s;
    double overhead = startup_s / completion;
    char work[32], comp[32];
    std::snprintf(work, sizeof(work), "%.0fs", work_s);
    std::snprintf(comp, sizeof(comp), "%.0fs", completion);
    PrintRow(work, {comp, FormatPct(overhead)});
    ctx.Metric("microbatch.overhead_at_" + std::string(work), overhead);
  }
}

void IngestionHeatmap(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Figure 2(c)", "ingestion heat map across 20 sources",
      "high variability across sources and time; spikes lasting seconds");
  SkewedTraceSpec spec;
  spec.sources = 20;
  spec.length = ctx.Dur(Seconds(60), Seconds(10));
  spec.total_tuples_per_sec = 200000;
  spec.skew_ratio = 200;
  spec.burst_alpha = 1.5;
  spec.idle_prob = 0.2;
  spec.msgs_per_interval = 1;
  Rng rng(42);
  auto trace = SynthesizeSkewedTrace(spec, rng);

  const std::int64_t secs = spec.length / kSecond;
  double max_ratio = 0;
  PrintHeaderRow("source", {"mean_t/s", "peak_t/s", "peak/mean", "idle_secs"});
  for (std::size_t s = 0; s < trace.size(); s += 4) {
    double total = 0, peak = 0;
    std::int64_t idle = secs - static_cast<std::int64_t>(trace[s].size());
    for (const Arrival& a : trace[s]) {
      total += static_cast<double>(a.tuples);
      peak = std::max(peak, static_cast<double>(a.tuples));
    }
    double mean = total / static_cast<double>(secs);
    max_ratio = std::max(max_ratio, mean > 0 ? peak / mean : 0.0);
    char m[32], p[32], r[32];
    std::snprintf(m, sizeof(m), "%.0f", mean);
    std::snprintf(p, sizeof(p), "%.0f", peak);
    std::snprintf(r, sizeof(r), "%.1fx", mean > 0 ? peak / mean : 0.0);
    PrintRow("src" + std::to_string(s), {m, p, r, std::to_string(idle)});
  }
  ctx.Metric("ingestion.max_peak_to_mean", max_ratio);
}

void Run(bench::BenchContext& ctx) {
  VolumeDistribution(ctx);
  ZipfDrawCost(ctx);
  MicroBatchOverhead(ctx);
  IngestionHeatmap(ctx);
}

CAMEO_BENCH_REGISTER("fig02_workload", "Figure 2",
                     "production workload characterization (synthetic)",
                     Run);

}  // namespace
}  // namespace cameo
