#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "ops/source.h"

namespace perfbench {

using cameo::CostModel;
using cameo::DataflowGraph;
using cameo::Micros;
using cameo::Operator;
using cameo::Partition;
using cameo::StageId;

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

void Report::Add(std::vector<Entry>& to, const std::string& name,
                 double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0;
  }
  to.push_back({name, value, unit});
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, value);
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::Print(const Args& args) const {
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  for (const auto& [key, value] : info_) {
    std::printf(", \"%s\": %.17g", key.c_str(), std::isfinite(value) ? value : 0);
  }
  const std::vector<Entry>& shown = trace_ ? layer_ : e2e_;
  for (const Entry& e : trace_ ? e2e_ : layer_) {
    std::printf(", \"%s\": %.17g", e.name.c_str(), e.value);
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(attempted_, 1)),
              static_cast<long long>(failed_));
  for (std::size_t i = 0; i < shown.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", shown[i].name.c_str(), shown[i].value,
                shown[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Operators.
// ---------------------------------------------------------------------------

CaptureSink::CaptureSink(std::string name)
    : Operator(std::move(name), cameo::WindowSpec::Regular(),
               CostModel{Micros(10), 20, 0}) {}

void CaptureSink::Invoke(const cameo::Message& m, cameo::InvokeContext& ctx) {
  if (!m.batch.columnar()) return;  // progress-only batch: no window result
  double total = 0;
  for (double v : m.batch.values) total += v;
  outputs_.push_back({m.batch.progress, total, ctx.now});
}

Probe::Probe(std::unique_ptr<Operator> inner, Kind kind)
    : Operator(inner->name(), inner->window(), inner->cost_model()),
      inner_(std::move(inner)),
      kind_(kind) {}

void Probe::Invoke(const cameo::Message& m, cameo::InvokeContext& ctx) {
  if (kind_ == Kind::kWait) {
    samples_.push_back(ctx.now - m.enqueue_time);
    inner_->Invoke(m, ctx);
    return;
  }
  const std::int64_t start = WallNs();
  inner_->Invoke(m, ctx);
  samples_.push_back(WallNs() - start);
}

namespace {

std::vector<std::int64_t> OperatorIds(const DataflowGraph& g, StageId stage) {
  std::vector<std::int64_t> ids;
  for (OperatorId op : g.stage(stage).operators) ids.push_back(op.value);
  return ids;
}

Tenant AddTenant(DataflowGraph& g, const std::string& name,
                 const TenantSpec& spec, bool probe) {
  CAMEO_CHECK(!spec.ls || spec.sources >= spec.mid);
  Tenant t;
  t.spec = spec;
  cameo::JobSpec job;
  job.name = name;
  job.latency_constraint = spec.constraint;
  job.time_domain = cameo::TimeDomain::kEventTime;
  job.output_window = spec.window;
  job.output_slide = spec.window;
  t.job = g.AddJob(job);

  // Cost models only steer the simulator; the wall-clock runtime runs with
  // cost emulation off and does the operators' real work.
  const auto window = cameo::WindowSpec::Tumbling(spec.window);
  const Probe::Kind mid_kind = spec.ls ? Probe::Kind::kWait : Probe::Kind::kInvoke;
  auto wrap = [&](std::unique_ptr<Operator> op, bool wrapped,
                  Probe::Kind kind) -> std::unique_ptr<Operator> {
    if (!probe || !wrapped) return op;
    auto p = std::make_unique<Probe>(std::move(op), kind);
    t.probes.push_back(p.get());
    return p;
  };

  const std::string src_name = name + "/src";
  const StageId src = g.AddStage(t.job, src_name, spec.sources, [&](int) {
    return wrap(std::make_unique<cameo::SourceOp>(
                    src_name, CostModel{Micros(spec.ls ? 20 : 50), 0, 0.05}),
                spec.ls, Probe::Kind::kWait);
  });

  std::vector<cameo::WindowAggOp*> mid_aggs;
  const std::string mid_name = name + (spec.ls ? "/agg" : "/counter");
  const StageId mid = g.AddStage(t.job, mid_name, spec.mid, [&](int) {
    std::unique_ptr<Operator> op;
    if (spec.ls) {
      auto agg = std::make_unique<cameo::WindowAggOp>(
          mid_name, window, CostModel{Micros(20), 1000, 0.05},
          cameo::AggKind::kSum);
      mid_aggs.push_back(agg.get());
      op = std::move(agg);
    } else {
      cameo::KeyedCounterOptions opts;
      opts.ttl = 2 * spec.window;
      auto counter = std::make_unique<cameo::KeyedCounterOp>(
          mid_name, window, CostModel{Micros(50), 300, 0.05}, opts);
      t.counters.push_back(counter.get());
      op = std::move(counter);
    }
    return wrap(std::move(op), true, mid_kind);
  });

  cameo::WindowAggOp* last = nullptr;
  const std::string last_name = name + (spec.ls ? "/final" : "/merge");
  const StageId fin = g.AddStage(t.job, last_name, 1, [&](int) {
    auto agg = std::make_unique<cameo::WindowAggOp>(
        last_name, window,
        spec.ls ? CostModel{Micros(20), 0, 0.05}
                : CostModel{Micros(100), 100, 0.05},
        cameo::AggKind::kSum, /*per_key=*/!spec.ls);
    last = agg.get();
    return wrap(std::move(agg), true, mid_kind);
  });

  const std::string sink_name = name + "/sink";
  const StageId sink = g.AddStage(t.job, sink_name, 1, [&](int) {
    auto s = std::make_unique<CaptureSink>(sink_name);
    t.sink = s.get();
    return wrap(std::move(s), spec.ls, Probe::Kind::kWait);
  });

  g.Connect(src, mid, spec.ls ? Partition::kShard : Partition::kKeyHash);
  g.Connect(mid, fin, Partition::kShard);
  g.Connect(fin, sink, Partition::kOneToOne);

  // Watermark channels (what FinalizeChannels derives for unwrapped stages):
  // a Shuffle edge feeds mid replica i from sources j with j % mid == i, a
  // KeyBy edge from every source; the last stage hears every mid replica.
  const std::vector<std::int64_t> src_ids = OperatorIds(g, src);
  for (int i = 0; i < spec.mid; ++i) {
    std::vector<std::int64_t> ids;
    for (std::size_t j = 0; j < src_ids.size(); ++j) {
      if (!spec.ls || static_cast<int>(j) % spec.mid == i) ids.push_back(src_ids[j]);
    }
    if (spec.ls) {
      mid_aggs[static_cast<std::size_t>(i)]->SetChannels(std::move(ids));
    } else {
      t.counters[static_cast<std::size_t>(i)]->SetChannels(std::move(ids));
    }
  }
  last->SetChannels(OperatorIds(g, mid));

  for (OperatorId op : g.stage(src).operators) t.sources.push_back(op);
  return t;
}

}  // namespace

std::vector<Tenant> AddTenants(DataflowGraph& g,
                               const std::vector<TenantSpec>& specs,
                               bool probe) {
  std::vector<Tenant> tenants;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string name = (specs[i].ls ? "LS" : "BA") + std::to_string(i);
    tenants.push_back(AddTenant(g, name, specs[i], probe));
  }
  return tenants;
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

void Feed::Fill(std::int64_t k, LogicalTime t, cameo::EventBatch& b) const {
  const std::size_t base = Slot(k) * static_cast<std::size_t>(rows);
  for (int r = 0; r < rows; ++r) {
    const std::uint32_t key = keys[base + static_cast<std::size_t>(r)];
    b.Append(key, Value(key), t);
  }
}

cameo::EventBatch MakeBatch(const Inputs& in, const Entry& e, LogicalTime base) {
  cameo::EventBatch b;
  b.progress = base + e.t;
  in.feeds[e.tenant][e.source].Fill(e.k, b.progress, b);
  return b;
}

Inputs MakeInputs(const std::vector<TenantSpec>& specs, Duration span,
                  std::int64_t ls_slots, std::uint64_t seed) {
  constexpr std::int64_t kLsKeys = 1000;
  constexpr std::size_t kBaKeys = 1'000'000;
  Inputs in;
  in.specs = specs;
  in.span = span;
  std::unique_ptr<cameo::ZipfSampler> zipf;
  for (std::size_t ti = 0; ti < specs.size(); ++ti) {
    const TenantSpec& spec = specs[ti];
    const std::int64_t batches = span * spec.msgs_per_sec / cameo::kSecond;
    CAMEO_CHECK(batches >= 1);
    if (!spec.ls && zipf == nullptr) {
      zipf = std::make_unique<cameo::ZipfSampler>(kBaKeys, 0.9);
    }
    in.feeds.emplace_back();
    in.phase.emplace_back();
    for (int s = 0; s < spec.sources; ++s) {
      cameo::Rng rng(seed * 0x9E3779B97F4A7C15ULL + ti * 1009 + static_cast<std::uint64_t>(s));
      // Send phases are spread by a fixed golden-ratio sequence rather than
      // drawn from the seed: where BA bursts fall relative to LS window
      // closes would otherwise vary from seed to seed and dominate the
      // run-to-run spread of the latency tails.
      const double index = static_cast<double>(ti * 16 + static_cast<std::size_t>(s) + 1);
      const double frac = index * 0.6180339887498949 - std::floor(index * 0.6180339887498949);
      in.phase[ti].push_back(
          static_cast<Duration>(frac * static_cast<double>(Period(spec))));
      Feed f;
      f.ls = spec.ls;
      f.rows = spec.rows;
      const std::int64_t slots = spec.ls ? std::min(ls_slots, batches) : batches;
      f.keys.resize(static_cast<std::size_t>(slots * spec.rows));
      f.sums.resize(static_cast<std::size_t>(slots));
      for (std::int64_t slot = 0; slot < slots; ++slot) {
        double sum = 0;
        for (int r = 0; r < spec.rows; ++r) {
          const auto key = static_cast<std::uint32_t>(
              spec.ls ? rng.UniformInt(0, kLsKeys - 1) : zipf->Sample(rng));
          f.keys[static_cast<std::size_t>(slot * spec.rows + r)] = key;
          sum += f.Value(key);
        }
        f.sums[static_cast<std::size_t>(slot)] = sum;
      }
      in.feeds[ti].push_back(std::move(f));
      for (std::int64_t k = 1; k <= batches; ++k) {
        Entry e;
        e.t = k * cameo::kSecond / spec.msgs_per_sec;
        e.due = e.t + in.phase[ti].back();
        e.tenant = static_cast<std::uint16_t>(ti);
        e.source = static_cast<std::uint16_t>(s);
        e.k = static_cast<std::uint32_t>(k);
        in.schedule.push_back(e);
      }
    }
  }
  std::sort(in.schedule.begin(), in.schedule.end(),
            [](const Entry& a, const Entry& b) {
              if (a.due != b.due) return a.due < b.due;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.source < b.source;
            });
  return in;
}

// ---------------------------------------------------------------------------
// Scoring.
// ---------------------------------------------------------------------------

void Book(WindowBook& book, const TenantSpec& spec, LogicalTime t, double sum,
          SimTime due) {
  const LogicalTime end = (t + spec.window - 1) / spec.window * spec.window;
  WindowRef& ref = book[end];
  ref.value += sum;
  ref.last_due = std::max(ref.last_due, due);
}

void ScoreTenant(const Tenant& tenant, const WindowBook& book, LogicalTime lo,
                 LogicalTime hi, Score& score) {
  std::map<LogicalTime, const WindowOutput*> seen;
  for (const WindowOutput& o : tenant.sink->outputs()) {
    if (book.count(o.end) == 0 || seen.count(o.end) != 0) {
      ++score.extra;
      continue;
    }
    seen[o.end] = &o;
  }
  const double constraint_ms = cameo::ToMillis(tenant.spec.constraint);
  for (const auto& [end, ref] : book) {
    ++score.windows;
    const bool measured = end >= lo && end <= hi;
    if (measured && tenant.spec.ls) ++score.ls_measured;
    auto it = seen.find(end);
    if (it == seen.end()) {
      ++score.missing;
      continue;
    }
    const bool right = it->second->value == ref.value;
    if (!right) ++score.wrong;
    if (!measured) continue;
    const double ms = cameo::ToMillis(it->second->emit - ref.last_due);
    if (tenant.spec.ls) {
      score.ls_ms.push_back(ms);
      if (right && ms <= constraint_ms) ++score.ls_met;
    } else {
      score.ba_ms.push_back(ms);
    }
  }
}

void ReportScore(const Score& score, Report& report) {
  report.Check(score.missing == 0,
               std::to_string(score.missing) + " window outputs missing");
  report.Check(score.wrong == 0,
               std::to_string(score.wrong) + " window outputs differ from the reference");
  report.Check(score.extra == 0,
               std::to_string(score.extra) + " unexpected window outputs");
  report.Check(!score.ls_ms.empty() && !score.ba_ms.empty(),
               "no measured LS or BA outputs");
  report.Count(score.windows, score.missing + score.wrong + score.extra);
  report.Metric("ls_met_rate",
                score.ls_measured == 0
                    ? 0
                    : static_cast<double>(score.ls_met) /
                          static_cast<double>(score.ls_measured),
                "ratio");
  // The latency percentiles are printed but not gated: on tenants_wall their
  // run-to-run spread on a shared 4-vCPU host (17-35%) exceeds any bound a
  // gate can use. BA gets a p90: a 1 s BA window yields one output per
  // tenant per second, ~26 per wall run, too few for a p99.
  report.Info("ls_p50_ms", Quantile(score.ls_ms, 0.5));
  report.Info("ls_p99_ms", Quantile(score.ls_ms, 0.99));
  report.Info("ba_p90_ms", Quantile(score.ba_ms, 0.9));
  report.Info("ls_outputs", static_cast<double>(score.ls_ms.size()));
  report.Info("ba_outputs", static_cast<double>(score.ba_ms.size()));
}

}  // namespace perfbench
