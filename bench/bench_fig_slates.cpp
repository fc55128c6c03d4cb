// Keyed slate state at scale: ns/row and deadline-met rate for the per-user
// counter as the key universe grows 10k -> 1M and key skew grows
// Zipf s 0 -> 1.5.
//
// Three parts:
//  1. Slate microbench: KeyedCounterOp driven directly with uniform keyed
//     batches at each universe size. The comparator is the row-wise
//     std::map reference (one ordered-map probe per row, per-window key
//     maps); every run is checked bit-identical against it -- same window
//     emissions, same late drops -- before its timing is reported. The
//     steady-state segment is also watched by this TU's counting global
//     operator new: `slates_<N>_allocs_per_msg` must stay 0 (per-window
//     key stores recycled with their capacity, and recycled batch columns,
//     cover the whole message lifecycle).
//  2. Scenario sweeps (full simulator, job "KEYED"): deadline-met rate and
//     p99 vs key count (uniform keys) and vs Zipf skew, the latter run both
//     unmitigated (splits=1) and mitigated (hot-key splitting x4). The
//     headline: at s >= 1.2 the unmitigated hot shard saturates and its
//     queue grows without bound, while splitting spreads the hot key across
//     sub-keys that a downstream per-key merge recombines.
//  3. CheetahGIS-style spatial grid: random walkers over a cell grid with a
//     hotspot drift, keyed by cell id -- the paper's motivating workload
//     shape (moving hotspots, long-tail cell popularity).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "bench/runner/registry.h"
#include "bench_util/report.h"
#include "bench_util/scenarios.h"
#include "common/check.h"
#include "common/rng.h"
#include "state/keyed_counter.h"

// ---------------------------------------------------------------------------
// Counting global allocator (alloc_test-style), so the bench can report
// allocations per steady-state message instead of inferring them.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::int64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cameo {
namespace {

using clock_type = std::chrono::steady_clock;

std::int64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Part 1: slate store microbench vs the row-wise std::map reference.
// ---------------------------------------------------------------------------

constexpr LogicalTime kWindow = 256;
constexpr int kRowsPerBatch = 512;
constexpr LogicalTime kTickStride = 64;  // batch progress stride

/// The traffic for one universe size: a sequential cover pass (every key
/// once), a random warm segment (reaches every buffer's high-water mark),
/// then the measured segment.
struct Traffic {
  std::vector<EventBatch> batches;
  std::size_t measure_from = 0;
  std::int64_t measured_rows = 0;
};

Traffic MakeTraffic(std::int64_t num_keys, int measured_batches,
                    std::uint64_t seed) {
  Traffic tr;
  Rng rng(seed);
  LogicalTime p = 0;
  auto push = [&](bool sequential, std::int64_t base) {
    p += kTickStride;
    EventBatch b;
    for (int i = 0; i < kRowsPerBatch; ++i) {
      const std::int64_t key = sequential
                                   ? (base + i) % num_keys
                                   : rng.UniformInt(0, num_keys - 1);
      // Random-segment event times trail progress a little, so some rows
      // land in already-closed windows and exercise the late-drop path. The
      // cover pass stays on-time so every key really gets counted.
      const LogicalTime t =
          sequential ? p
                     : std::max<LogicalTime>(1, p - rng.UniformInt(0, 96));
      b.Append(key, 1.0, t);
    }
    b.progress = p;
    tr.batches.push_back(std::move(b));
  };
  for (std::int64_t base = 0; base < num_keys; base += kRowsPerBatch) {
    push(/*sequential=*/true, base);
  }
  for (int i = 0; i < 600; ++i) push(/*sequential=*/false, 0);
  tr.measure_from = tr.batches.size();
  for (int i = 0; i < measured_batches; ++i) push(/*sequential=*/false, 0);
  tr.measured_rows =
      static_cast<std::int64_t>(measured_batches) * kRowsPerBatch;
  return tr;
}

/// (window end) -> sorted (key, count) rows, the comparable emission shape.
using EmissionMap =
    std::map<LogicalTime, std::vector<std::pair<std::int64_t, double>>>;

class DrainEmitter final : public Emitter {
 public:
  void Emit(int /*port*/, EventBatch batch, SimTime /*event_time*/) override {
    ++batches;
    batch.Recycle();
  }
  std::int64_t batches = 0;
};

class CaptureEmitter final : public Emitter {
 public:
  void Emit(int /*port*/, EventBatch batch, SimTime /*event_time*/) override {
    if (!batch.keys.empty()) {  // skip trailing progress-only batches
      auto& rows = windows[batch.progress];
      for (std::size_t i = 0; i < batch.keys.size(); ++i) {
        rows.emplace_back(batch.keys[i], batch.values[i]);
      }
    }
    batch.Recycle();
  }
  EmissionMap windows;
};

/// Drives `op` over batches [from, to); batches are moved into the message
/// and back out, so the traffic vector survives for the reference leg and
/// the drive itself performs no copies.
double DriveOp(KeyedCounterOp& op, std::vector<EventBatch>& batches,
               std::size_t from, std::size_t to, Emitter& emitter,
               std::int64_t rows) {
  Rng rng(3);
  InvokeContext ctx{0, &emitter, &rng};
  const auto t0 = clock_type::now();
  for (std::size_t i = from; i < to; ++i) {
    Message m;
    m.id = MessageId{static_cast<std::int64_t>(i)};
    m.sender = OperatorId{1};
    m.batch = std::move(batches[i]);
    op.Invoke(m, ctx);
    batches[i] = std::move(m.batch);
  }
  const auto t1 = clock_type::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
             .count() /
         static_cast<double>(rows);
}

/// Row-wise std::map reference with the operator's exact semantics:
/// inclusive-right tumbling windows, fold-before-watermark late policy,
/// sorted-by-key emission once the watermark passes a window's end.
struct MapReference {
  std::map<LogicalTime, std::map<std::int64_t, double>> open;
  EmissionMap out;
  LogicalTime wm = -1;
  std::int64_t late = 0;

  void Consume(const EventBatch& b) {
    for (std::size_t i = 0; i < b.keys.size(); ++i) {
      const LogicalTime t = b.times[i];
      const LogicalTime end = ((t + kWindow - 1) / kWindow) * kWindow;
      if (end <= wm) {
        ++late;
        continue;
      }
      open[end][b.keys[i]] += b.values[i];
    }
    wm = std::max(wm, b.progress);
    while (!open.empty() && open.begin()->first <= wm) {
      auto& rows = out[open.begin()->first];
      for (const auto& [k, v] : open.begin()->second) rows.emplace_back(k, v);
      open.erase(open.begin());
    }
  }
};

double DriveReference(MapReference& ref, const std::vector<EventBatch>& batches,
                      std::size_t from, std::size_t to, std::int64_t rows) {
  const auto t0 = clock_type::now();
  for (std::size_t i = from; i < to; ++i) ref.Consume(batches[i]);
  const auto t1 = clock_type::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
             .count() /
         static_cast<double>(rows);
}

void CheckEmissionsEqual(const EmissionMap& op, const EmissionMap& ref) {
  CAMEO_CHECK(op.size() == ref.size());
  auto io = op.begin();
  auto ir = ref.begin();
  for (; io != op.end(); ++io, ++ir) {
    CAMEO_CHECK(io->first == ir->first);
    CAMEO_CHECK(io->second == ir->second);  // bit-identical, not approximate
  }
}

void RunSlateMicrobench(bench::BenchContext& ctx) {
  const std::vector<std::int64_t> populations =
      ctx.smoke ? std::vector<std::int64_t>{10'000, 100'000}
                : std::vector<std::int64_t>{10'000, 100'000, 1'000'000};
  const int measured_batches = ctx.smoke ? 400 : 2000;

  std::printf(
      "--- slate store vs row-wise std::map (%d-row batches, tumbling %lld) "
      "---\n",
      kRowsPerBatch, static_cast<long long>(kWindow));
  std::printf("%10s %12s %12s %8s %12s %12s %9s\n", "keys", "map ns/row",
              "slate ns/row", "speedup", "map al/msg", "slate al/msg",
              "rehashes");

  for (const std::int64_t num_keys : populations) {
    Traffic tr = MakeTraffic(num_keys, measured_batches, /*seed=*/17);

    // Equivalence run: the whole stream through a fresh operator and the
    // reference; every window emission must match bit-exactly.
    {
      KeyedCounterOp eq_op("slates_eq", WindowSpec::Tumbling(kWindow),
                           {0, 0, 0.0});
      CaptureEmitter capture;
      DriveOp(eq_op, tr.batches, 0, tr.batches.size(), capture, 1);
      MapReference ref;
      DriveReference(ref, tr.batches, 0, tr.batches.size(), 1);
      CheckEmissionsEqual(capture.windows, ref.out);
      CAMEO_CHECK(eq_op.late_dropped() == ref.late);
    }

    // Timing run: warm (cover + warm segment) untimed, then the measured
    // segment timed and allocation-counted.
    KeyedCounterOp op("slates", WindowSpec::Tumbling(kWindow), {0, 0, 0.0});
    DrainEmitter drain;
    DriveOp(op, tr.batches, 0, tr.measure_from, drain, 1);
    const std::uint64_t rehashes_before = op.store().rehashes();
    const std::int64_t allocs_before = HeapAllocs();
    const double slate_ns = DriveOp(op, tr.batches, tr.measure_from,
                                    tr.batches.size(), drain,
                                    tr.measured_rows);
    const double allocs_per_msg =
        static_cast<double>(HeapAllocs() - allocs_before) /
        static_cast<double>(tr.batches.size() - tr.measure_from);
    // Recycled window stores keep their capacity: no regrowth once warm.
    CAMEO_CHECK(op.store().rehashes() == rehashes_before);

    MapReference ref;
    DriveReference(ref, tr.batches, 0, tr.measure_from, 1);
    const std::int64_t map_allocs_before = HeapAllocs();
    const double map_ns = DriveReference(ref, tr.batches, tr.measure_from,
                                         tr.batches.size(), tr.measured_rows);
    const double map_allocs_per_msg =
        static_cast<double>(HeapAllocs() - map_allocs_before) /
        static_cast<double>(tr.batches.size() - tr.measure_from);

    std::printf("%10lld %12.2f %12.2f %7.2fx %12.1f %12.3f %9llu\n",
                static_cast<long long>(num_keys), map_ns, slate_ns,
                map_ns / slate_ns, map_allocs_per_msg, allocs_per_msg,
                static_cast<unsigned long long>(op.store().rehashes()));
    char metric[96];
    std::snprintf(metric, sizeof(metric), "rowwise_map_%lldk.ns_per_row",
                  static_cast<long long>(num_keys / 1000));
    ctx.Metric(metric, map_ns);
    std::snprintf(metric, sizeof(metric), "slates_%lldk.ns_per_row",
                  static_cast<long long>(num_keys / 1000));
    ctx.Metric(metric, slate_ns);
    std::snprintf(metric, sizeof(metric), "slates_%lldk.speedup",
                  static_cast<long long>(num_keys / 1000));
    ctx.Metric(metric, map_ns / slate_ns);
    std::snprintf(metric, sizeof(metric), "slates_%lldk_allocs_per_msg",
                  static_cast<long long>(num_keys / 1000));
    ctx.Metric(metric, allocs_per_msg);
    // Deliberately not named *_allocs_per_msg: the map leg's churn is the
    // contrast, not a zero-allocation claim the gate should hold it to.
    std::snprintf(metric, sizeof(metric), "rowwise_map_%lldk.allocs",
                  static_cast<long long>(num_keys / 1000));
    ctx.Metric(metric, map_allocs_per_msg);
  }
}

// ---------------------------------------------------------------------------
// Parts 2 and 3: full-simulator scenario sweeps.
// ---------------------------------------------------------------------------

void CheckBooks(const KeyedScenarioResult& r) {
  // Conservation identities that hold at any horizon (windows still open at
  // the end hold rows that were seen but not yet emitted, so emission is a
  // lower bound, not an equality).
  CAMEO_CHECK(r.rows_seen > 0);
  CAMEO_CHECK(r.count_emitted + static_cast<double>(r.late_dropped) <=
              static_cast<double>(r.rows_seen));
}

void RunScenarioSweeps(bench::BenchContext& ctx) {
  const SimTime duration = ctx.Dur(Seconds(30));

  // --- deadline-met rate vs key count (uniform keys, mitigations on) ---
  const std::vector<std::int64_t> universes =
      ctx.smoke ? std::vector<std::int64_t>{10'000, 100'000}
                : std::vector<std::int64_t>{10'000, 100'000, 1'000'000};
  std::printf("\n--- deadline-met rate vs key count (uniform keys) ---\n");
  PrintHeaderRow("keys", {"success", "p99", "live_keys", "rehashes"});
  for (const std::int64_t universe : universes) {
    KeyedScenarioOptions opt;
    opt.dist = KeyDistribution::kUniform;
    opt.num_keys = universe;
    opt.duration = duration;
    KeyedScenarioResult r = RunKeyedScenario(opt);
    CheckBooks(r);
    char label[32];
    std::snprintf(label, sizeof(label), "%lldk",
                  static_cast<long long>(universe / 1000));
    PrintRow(label, {FormatPct(r.run.GroupSuccessRate("KEYED")),
                     FormatMs(r.run.GroupPercentile("KEYED", 99)),
                     std::to_string(r.keys_live),
                     std::to_string(r.slate_rehashes)});
    char metric[96];
    std::snprintf(metric, sizeof(metric), "keys_%lldk.success",
                  static_cast<long long>(universe / 1000));
    ctx.Metric(metric, r.run.GroupSuccessRate("KEYED"));
    std::snprintf(metric, sizeof(metric), "keys_%lldk_p99_ms",
                  static_cast<long long>(universe / 1000));
    ctx.Metric(metric, r.run.GroupPercentile("KEYED", 99));
  }

  // --- Zipf hot-key sweep: unmitigated vs mitigated ---
  // counter_per_tuple is set so balanced load sits near 75% utilization:
  // the hot shard of an unmitigated skewed run saturates (its queue grows
  // for the whole run) while the mitigated run stays subcritical.
  const std::vector<double> skews =
      ctx.smoke ? std::vector<double>{0.0, 1.2}
                : std::vector<double>{0.0, 0.6, 1.0, 1.2, 1.5};
  std::printf("\n--- Zipf hot-key sweep: split x1 vs split x4 ---\n");
  PrintHeaderRow("zipf_s", {"unmit_succ", "mit_succ", "unmit_p99", "mit_p99"});
  for (const double s : skews) {
    KeyedScenarioOptions base;
    base.dist = KeyDistribution::kZipf;
    base.num_keys = 50'000;
    base.zipf_s = s;
    base.counter_per_tuple = Micros(19);
    base.duration = duration;

    KeyedScenarioOptions unmit = base;
    unmit.splits = 1;
    KeyedScenarioResult ru = RunKeyedScenario(unmit);
    CheckBooks(ru);

    KeyedScenarioOptions mit = base;
    mit.splits = 4;
    KeyedScenarioResult rm = RunKeyedScenario(mit);
    CheckBooks(rm);

    char label[32];
    std::snprintf(label, sizeof(label), "%.1f", s);
    PrintRow(label, {FormatPct(ru.run.GroupSuccessRate("KEYED")),
                     FormatPct(rm.run.GroupSuccessRate("KEYED")),
                     FormatMs(ru.run.GroupPercentile("KEYED", 99)),
                     FormatMs(rm.run.GroupPercentile("KEYED", 99))});
    char metric[96];
    std::snprintf(metric, sizeof(metric), "zipf_s%.1f_unmit.success", s);
    ctx.Metric(metric, ru.run.GroupSuccessRate("KEYED"));
    std::snprintf(metric, sizeof(metric), "zipf_s%.1f_mit.success", s);
    ctx.Metric(metric, rm.run.GroupSuccessRate("KEYED"));
    std::snprintf(metric, sizeof(metric), "zipf_s%.1f_unmit_p99_ms", s);
    ctx.Metric(metric, ru.run.GroupPercentile("KEYED", 99));
    std::snprintf(metric, sizeof(metric), "zipf_s%.1f_mit_p99_ms", s);
    ctx.Metric(metric, rm.run.GroupPercentile("KEYED", 99));
    if (s >= 1.2) {
      const double p99_gain = ru.run.GroupPercentile("KEYED", 99) /
                              std::max(1e-9, rm.run.GroupPercentile("KEYED", 99));
      const double succ_gain = rm.run.GroupSuccessRate("KEYED") /
                               std::max(1e-9, ru.run.GroupSuccessRate("KEYED"));
      std::printf("    s=%.1f mitigation gain: success x%.2f, p99 /%.2f\n", s,
                  succ_gain, p99_gain);
      std::snprintf(metric, sizeof(metric), "zipf_s%.1f.p99_gain", s);
      ctx.Metric(metric, p99_gain);
      std::snprintf(metric, sizeof(metric), "zipf_s%.1f.success_gain", s);
      ctx.Metric(metric, succ_gain);
    }
  }

  // --- CheetahGIS-style spatial grid (hotspot random walk over cells) ---
  std::printf("\n--- spatial grid workload (cell-keyed walkers) ---\n");
  PrintHeaderRow("grid", {"success", "p99", "live_cells", "rehashes"});
  KeyedScenarioOptions grid;
  grid.dist = KeyDistribution::kGrid;
  grid.grid_width = 256;
  grid.grid_height = 256;
  grid.grid_entities = ctx.smoke ? 4'000 : 20'000;
  grid.duration = duration;
  KeyedScenarioResult rg = RunKeyedScenario(grid);
  CheckBooks(rg);
  PrintRow("256x256", {FormatPct(rg.run.GroupSuccessRate("KEYED")),
                       FormatMs(rg.run.GroupPercentile("KEYED", 99)),
                       std::to_string(rg.keys_live),
                       std::to_string(rg.slate_rehashes)});
  ctx.Metric("grid.success", rg.run.GroupSuccessRate("KEYED"));
  ctx.Metric("grid_p99_ms", rg.run.GroupPercentile("KEYED", 99));
}

void Run(bench::BenchContext& ctx) {
  PrintFigureBanner(
      "Slates", "keyed slate state at 1M+ keys",
      "slate store vs std::map; hot-key splitting vs saturation");
  RunSlateMicrobench(ctx);
  RunScenarioSweeps(ctx);
}

CAMEO_BENCH_REGISTER("fig_slates", "Slates",
                     "keyed slate store ns/row, hot-key mitigation sweep",
                     Run);

}  // namespace
}  // namespace cameo
