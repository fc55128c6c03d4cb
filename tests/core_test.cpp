// Unit tests for src/core: TRANSFORM, PROGRESSMAP, the online linear
// regression, the cost profiler, the scheduling policies, token buckets, and
// the Algorithm 1 context converter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/context_converter.h"
#include "core/linear_regression.h"
#include "core/policies.h"
#include "core/profiler.h"
#include "core/progress_map.h"
#include "core/token_bucket.h"
#include "core/transform.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/window_agg.h"

namespace cameo {
namespace {

// ---------------- TRANSFORM ----------------

TEST(TransformTest, RegularTargetIsIdentity) {
  // S_ou >= S_od (both 0): no window boundary to extend to.
  EXPECT_EQ(Transform(123, 0, 0), 123);
}

TEST(TransformTest, WindowedTargetRoundsUpToBoundary) {
  EXPECT_EQ(Transform(5, 0, 10), 10);
  EXPECT_EQ(Transform(9, 0, 10), 10);
  EXPECT_EQ(Transform(11, 0, 10), 20);
}

TEST(TransformTest, BoundaryBelongsToItsOwnWindow) {
  // Inclusive-right semantics: progress exactly at the boundary completes
  // (and belongs to) that window.
  EXPECT_EQ(Transform(10, 0, 10), 10);
  EXPECT_EQ(Transform(20, 0, 10), 20);
}

TEST(TransformTest, EqualSlidesPassThrough) {
  // S_ou == S_od: upstream windows already align with downstream.
  EXPECT_EQ(Transform(30, 10, 10), 30);
}

TEST(TransformTest, CoarserUpstreamPassesThrough) {
  // S_ou > S_od: upstream boundaries subsume downstream ones.
  EXPECT_EQ(Transform(30, 20, 10), 30);
}

TEST(TransformTest, WindowSpecOverload) {
  WindowSpec regular = WindowSpec::Regular();
  WindowSpec tumbling = WindowSpec::Tumbling(Seconds(1));
  EXPECT_EQ(Transform(Millis(1500), regular, tumbling), Seconds(2));
  EXPECT_EQ(Transform(Seconds(2), tumbling, tumbling), Seconds(2));
}

struct TransformCase {
  LogicalTime p;
  LogicalTime s_up;
  LogicalTime s_down;
};

class TransformPropertyTest : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformPropertyTest, FrontierInvariants) {
  const auto& c = GetParam();
  LogicalTime f = Transform(c.p, c.s_up, c.s_down);
  // Frontier never precedes the message's own progress.
  EXPECT_GE(f, c.p);
  if (c.s_up < c.s_down) {
    // Frontier is the first boundary at or after p, strictly within one
    // window of it.
    EXPECT_EQ(f % c.s_down, 0);
    EXPECT_LT(f - c.p, c.s_down);
  } else {
    EXPECT_EQ(f, c.p);
  }
  // Idempotent: transforming a frontier again does not move it.
  EXPECT_EQ(Transform(f, c.s_up, c.s_down), f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransformPropertyTest,
    ::testing::Values(TransformCase{1, 0, 10}, TransformCase{10, 0, 10},
                      TransformCase{999, 0, 1000}, TransformCase{1000, 0, 1000},
                      TransformCase{1001, 0, 1000}, TransformCase{5, 2, 10},
                      TransformCase{17, 3, 5}, TransformCase{17, 5, 5},
                      TransformCase{17, 7, 5}, TransformCase{0, 0, 10},
                      TransformCase{Seconds(3) + 1, Seconds(1), Seconds(10)},
                      TransformCase{Seconds(10), Seconds(1), Seconds(10)}));

// ---------------- Linear regression ----------------

TEST(LinearRegressionTest, NotReadyWithFewPoints) {
  OnlineLinearRegression r(8);
  EXPECT_FALSE(r.Ready());
  r.Observe(1, 2);
  EXPECT_FALSE(r.Ready());
}

TEST(LinearRegressionTest, NotReadyWithDegenerateX) {
  OnlineLinearRegression r(8);
  r.Observe(5, 1);
  r.Observe(5, 2);
  r.Observe(5, 3);
  EXPECT_FALSE(r.Ready());
}

TEST(LinearRegressionTest, ExactLineRecovered) {
  OnlineLinearRegression r(16);
  for (int i = 0; i < 10; ++i) {
    r.Observe(i, 3.0 * i + 7.0);
  }
  ASSERT_TRUE(r.Ready());
  EXPECT_NEAR(r.alpha(), 3.0, 1e-9);
  EXPECT_NEAR(r.gamma(), 7.0, 1e-9);
  EXPECT_NEAR(r.Predict(100), 307.0, 1e-6);
}

TEST(LinearRegressionTest, SlidingWindowForgetsOldRegime) {
  OnlineLinearRegression r(4);
  // Old regime: y = x. New regime: y = x + 100. With window 4, only the new
  // regime should remain after 4 new points.
  for (int i = 0; i < 10; ++i) r.Observe(i, i);
  for (int i = 10; i < 14; ++i) r.Observe(i, i + 100);
  ASSERT_TRUE(r.Ready());
  EXPECT_NEAR(r.Predict(20), 120.0, 1e-6);
}

TEST(LinearRegressionTest, NanosecondScaleStability) {
  // Timestamps ~1e12 with ~2s offset: centering must preserve precision.
  OnlineLinearRegression r(32);
  const double base = 3.6e12;
  for (int i = 0; i < 20; ++i) {
    double p = base + i * 1e9;
    r.Observe(p, p + 2e9);
  }
  ASSERT_TRUE(r.Ready());
  EXPECT_NEAR(r.alpha(), 1.0, 1e-6);
  EXPECT_NEAR(r.Predict(base + 30e9), base + 32e9, 1e3);
}

/// The classic windowed fit: two centred passes in double over a
/// std::deque, summing oldest to newest. An independent closeness reference
/// for the exact fit.
struct DequeFit {
  bool ready = false;
  double alpha = 0, gamma = 0;
  double mx = 0, my = 0;  // FitDeque only: the double means of x and y
};

using IntPoints = std::deque<std::pair<LogicalTime, SimTime>>;

DequeFit FitDeque(const IntPoints& pts) {
  DequeFit f;
  const auto n = static_cast<double>(pts.size());
  if (pts.size() < 2) return f;
  double mx = 0, my = 0;
  for (const auto& [x, y] : pts) {
    mx += static_cast<double>(x);
    my += static_cast<double>(y);
  }
  mx /= n;
  my /= n;
  f.mx = mx;
  f.my = my;
  double sxx = 0, sxy = 0;
  for (const auto& [xi, yi] : pts) {
    const double x = static_cast<double>(xi), y = static_cast<double>(yi);
    sxx += (x - mx) * (x - mx);
    sxy += (x - mx) * (y - my);
  }
  if (sxx <= 0) return f;
  f.alpha = sxy / sxx;
  f.gamma = my - f.alpha * mx;
  f.ready = true;
  return f;
}

/// The four sums recomputed from scratch in __int128, then the closed form
/// OnlineLinearRegression::Fit applies: the exact fit the running sums must
/// reproduce bit for bit. The slope's sums are taken over offsets from the
/// oldest point, a different shift from the ring's anchor; both sides of the
/// quotient are shift-invariant integers, so any shift that cannot overflow
/// gives the same bits.
DequeFit RecomputeExact(const IntPoints& pts) {
  DequeFit f;
  if (pts.empty()) return f;
  const __int128 x0 = pts.front().first, y0 = pts.front().second;
  __int128 sx = 0, sy = 0, sxx = 0, sxy = 0, sum_x = 0, sum_y = 0;
  for (const auto& [x, y] : pts) {
    const __int128 dx = x - x0, dy = y - y0;
    sx += dx;
    sy += dy;
    sxx += dx * dx;
    sxy += dx * dy;
    sum_x += x;
    sum_y += y;
  }
  const auto n = static_cast<__int128>(pts.size());
  const __int128 den = n * sxx - sx * sx;
  if (den <= 0) return f;
  const __int128 num = n * sxy - sx * sy;
  const auto nd = static_cast<double>(n);
  f.alpha = static_cast<double>(num) / static_cast<double>(den);
  f.gamma = static_cast<double>(sum_y) / nd -
            f.alpha * (static_cast<double>(sum_x) / nd);
  f.ready = true;
  return f;
}

TEST(LinearRegressionTest, IncrementalSumsMatchRecomputeBitExactly) {
  // Random integer (p, t) streams long enough to wrap each window several
  // times; the fit is read after every observation, so each ring head
  // position is compared. Four regimes: nanosecond-scale progress with a
  // lag, x drawn from three values (degenerate windows), magnitudes within
  // 2^20 of ±2^53 with random signs, and Unix-epoch nanoseconds on both
  // axes whose steps carry the stream many times 2^53 past its first point
  // while each window spans less than 2^53 (so the ring re-anchors and must
  // keep every point). Every regime also repeats the previous x a third of
  // the time.
  constexpr std::int64_t kMax = OnlineLinearRegression::kMaxOffset - 1;
  constexpr std::int64_t kEpochNs = 1'760'000'000'000'000'000;
  Rng rng(2026);
  for (int regime = 0; regime < 4; ++regime) {
    double worst_alpha = 0, worst_gamma = 0;
    for (std::size_t window : {2, 3, 7, 64}) {
      OnlineLinearRegression ring(window);
      IntPoints ref;
      LogicalTime p = regime == 3 ? kEpochNs : 3'600'000'000'000;
      const std::int64_t epoch_step =
          kMax / static_cast<std::int64_t>(window);
      for (std::size_t i = 0; i < 5 * window + 3; ++i) {
        SimTime t = 0;
        if (regime == 0) {
          if (!rng.Chance(1.0 / 3)) p += rng.UniformInt(0, 2'000'000'000);
          t = p + rng.UniformInt(1'000'000'000, 3'000'000'000);
        } else if (regime == 1) {
          if (!rng.Chance(1.0 / 3)) p = rng.UniformInt(-1, 1) * Seconds(7);
          t = rng.UniformInt(-Seconds(1000), Seconds(1000));
        } else if (regime == 2) {
          if (!rng.Chance(1.0 / 3)) {
            p = (kMax - rng.UniformInt(0, (1 << 20) - 1)) *
                (rng.Chance(0.5) ? 1 : -1);
          }
          t = (kMax - rng.UniformInt(0, (1 << 20) - 1)) *
              (rng.Chance(0.5) ? 1 : -1);
        } else {
          if (!rng.Chance(1.0 / 3)) {
            p += rng.UniformInt(epoch_step / 2, epoch_step - 1);
          }
          t = p + rng.UniformInt(0, Seconds(1));
        }
        ring.Observe(p, t);
        ref.emplace_back(p, t);
        if (ref.size() > window) ref.pop_front();
        const DequeFit want = RecomputeExact(ref);
        const std::string where = "regime " + std::to_string(regime) +
                                  " window " + std::to_string(window) +
                                  " i " + std::to_string(i);
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.Ready(), want.ready) << where;
        if (!want.ready) continue;
        // EXPECT_EQ on doubles is exact: bit-identical, not merely close.
        EXPECT_EQ(ring.alpha(), want.alpha) << where;
        EXPECT_EQ(ring.gamma(), want.gamma) << where;

        const DequeFit two_pass = FitDeque(ref);
        ASSERT_TRUE(two_pass.ready) << where;
        // γ is the difference ȳ − α·x̄; measure its error against the size
        // of those terms, which is what double rounding scales with.
        const double gamma_scale = std::max(
            1.0, std::abs(two_pass.my) + std::abs(want.alpha * two_pass.mx));
        worst_alpha = std::max(
            worst_alpha, std::abs(two_pass.alpha - want.alpha) /
                             std::max(std::abs(want.alpha), 1e-300));
        worst_gamma = std::max(
            worst_gamma, std::abs(two_pass.gamma - want.gamma) / gamma_scale);
      }
    }
    std::printf("regime %d: largest relative difference vs the two-pass "
                "fit: alpha %.3g, gamma %.3g\n",
                regime, worst_alpha, worst_gamma);
    // Near ±2^53 the two-pass fit is the inexact one: its double mean of
    // same-sign points rounds away bits their 2^20 spread needs, while the
    // integer sums lose nothing (FullWindowAtMaxMagnitudeStaysExact).
    // At epoch scale its double means carry 256 ns rounding against spreads
    // of 2^40 ns and more.
    const double bound = regime == 2 ? 1e-3 : regime == 3 ? 1e-9 : 1e-12;
    EXPECT_LT(worst_alpha, bound) << "regime " << regime;
    EXPECT_LT(worst_gamma, bound) << "regime " << regime;
  }
}

TEST(LinearRegressionTest, FullWindowAtMaxMagnitudeStaysExact) {
  // The stated bound at its edge: 1,024 points with |p| = |t| = 2^53 − 1,
  // twice round the ring. The reference sums are accumulated with
  // overflow-checked __int128 arithmetic, so an overflow anywhere in the
  // closed form fails here rather than producing a plausible fit.
  constexpr std::size_t kWindow = OnlineLinearRegression::kMaxWindow;
  static_assert(kWindow == 1024);
  constexpr std::int64_t kMax = OnlineLinearRegression::kMaxOffset - 1;
  Rng rng(53);
  OnlineLinearRegression r(kWindow);
  IntPoints ref;
  for (int lap = 0; lap < 2; ++lap) {
    for (std::size_t i = 0; i < kWindow; ++i) {
      const LogicalTime p = rng.Chance(0.5) ? kMax : -kMax;
      const SimTime t = rng.Chance(0.7) ? p : -p;
      r.Observe(p, t);
      ref.emplace_back(p, t);
      if (ref.size() > kWindow) ref.pop_front();
    }
    __int128 sx = 0, sy = 0, sxx = 0, sxy = 0;
    auto add = [](__int128& acc, __int128 v) {
      ASSERT_FALSE(__builtin_add_overflow(acc, v, &acc));
    };
    auto mul = [](__int128 a, __int128 b) {
      __int128 out = 0;
      EXPECT_FALSE(__builtin_mul_overflow(a, b, &out));
      return out;
    };
    for (const auto& [x, y] : ref) {
      add(sx, x);
      add(sy, y);
      add(sxx, mul(x, x));
      add(sxy, mul(x, y));
    }
    const auto n = static_cast<__int128>(ref.size());
    __int128 den = mul(n, sxx), num = mul(n, sxy);
    ASSERT_FALSE(__builtin_sub_overflow(den, mul(sx, sx), &den));
    ASSERT_FALSE(__builtin_sub_overflow(num, mul(sx, sy), &num));
    ASSERT_GT(den, 0);

    using LD = long double;
    const LD ln = static_cast<LD>(ref.size());
    const LD alpha = static_cast<LD>(num) / static_cast<LD>(den);
    const LD mx = static_cast<LD>(sx) / ln, my = static_cast<LD>(sy) / ln;
    const LD gamma = my - alpha * mx;
    constexpr double kEps = std::numeric_limits<double>::epsilon();
    ASSERT_TRUE(r.Ready());
    EXPECT_NEAR(r.alpha(), static_cast<double>(alpha),
                4 * kEps * std::abs(static_cast<double>(alpha)))
        << "lap " << lap;
    EXPECT_NEAR(r.gamma(), static_cast<double>(gamma),
                4 * kEps * static_cast<double>(std::abs(my) +
                                               std::abs(alpha * mx)))
        << "lap " << lap;
  }
}

TEST(LinearRegressionTest, FarJumpRestartsTheWindow) {
  // Progress near zero, then Unix-epoch nanoseconds: the new point is more
  // than 2^53 from every old one, so it anchors a window of its own.
  constexpr std::int64_t kEpochNs = 1'760'000'000'000'000'000;
  OnlineLinearRegression r(8);
  for (int i = 0; i < 8; ++i) r.Observe(Seconds(i), Seconds(i) + Millis(5));
  ASSERT_TRUE(r.Ready());
  r.Observe(kEpochNs, Seconds(9));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.Ready());

  IntPoints ref{{kEpochNs, Seconds(9)}};
  for (int i = 1; i < 20; ++i) {
    const LogicalTime p = kEpochNs + Seconds(i);
    const SimTime t = Seconds(9 + i) + Millis(i % 3);
    r.Observe(p, t);
    ref.emplace_back(p, t);
    if (ref.size() > 8) ref.pop_front();
    const DequeFit want = RecomputeExact(ref);
    ASSERT_EQ(r.size(), ref.size()) << "i " << i;
    ASSERT_TRUE(r.Ready()) << "i " << i;
    EXPECT_EQ(r.alpha(), want.alpha) << "i " << i;
    EXPECT_EQ(r.gamma(), want.gamma) << "i " << i;
  }
  EXPECT_NEAR(r.alpha(), 1.0, 1e-3);
  EXPECT_NEAR(r.Predict(static_cast<double>(kEpochNs + Seconds(30))),
              static_cast<double>(Seconds(39)),
              static_cast<double>(Millis(10)));

  // A jump on the t axis alone restarts the window too.
  r.Observe(kEpochNs + Seconds(20), -kEpochNs);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.Ready());
}

// ---------------- ProgressMap ----------------

TEST(ProgressMapTest, IngestionTimeIsIdentity) {
  ProgressMap map(TimeDomain::kIngestionTime);
  EXPECT_EQ(map.MapToTime(Seconds(5), /*t_fallback=*/0), Seconds(5));
}

TEST(ProgressMapTest, EventTimeFallsBackBeforeFit) {
  ProgressMap map(TimeDomain::kEventTime);
  EXPECT_EQ(map.MapToTime(Seconds(5), Millis(123)), Millis(123));
}

TEST(ProgressMapTest, EventTimeLearnsConstantDelay) {
  // Paper's example: 10 s tumbling window, events reach the operator 2 s
  // after their event time; t_MF should be predicted at p_MF + 2 s.
  ProgressMap map(TimeDomain::kEventTime);
  for (int k = 1; k <= 8; ++k) {
    map.Update(Seconds(k), Seconds(k) + Seconds(2));
  }
  SimTime predicted = map.MapToTime(Seconds(10), /*t_fallback=*/0);
  EXPECT_NEAR(static_cast<double>(predicted),
              static_cast<double>(Seconds(12)), 1e-3 * kSecond);
}

TEST(ProgressMapTest, PredictionClampedToFallback) {
  // A fit can extrapolate into the past; the map must never predict a
  // frontier before the triggering message existed.
  ProgressMap map(TimeDomain::kEventTime);
  for (int k = 1; k <= 8; ++k) map.Update(Seconds(k), Seconds(k));
  SimTime t = map.MapToTime(Seconds(2), /*t_fallback=*/Seconds(9));
  EXPECT_EQ(t, Seconds(9));
}

// ---------------- Profiler ----------------

TEST(ProfilerTest, UnknownOperatorIsZero) {
  CostProfiler p;
  EXPECT_EQ(p.Estimate(OperatorId{1}), 0);
}

TEST(ProfilerTest, FirstSampleTaken) {
  CostProfiler p;
  p.Record(OperatorId{1}, Millis(2));
  EXPECT_EQ(p.Estimate(OperatorId{1}), Millis(2));
  EXPECT_EQ(p.samples(OperatorId{1}), 1u);
}

TEST(ProfilerTest, EwmaConvergesToSteadyCost) {
  CostProfiler p;
  p.Record(OperatorId{1}, Millis(10));
  for (int i = 0; i < 50; ++i) p.Record(OperatorId{1}, Millis(2));
  EXPECT_NEAR(static_cast<double>(p.Estimate(OperatorId{1})),
              static_cast<double>(Millis(2)), 0.05 * Millis(2));
}

TEST(ProfilerTest, SeedOnlyAppliesBeforeMeasurements) {
  CostProfiler p;
  p.Seed(OperatorId{1}, Millis(5));
  EXPECT_EQ(p.Estimate(OperatorId{1}), Millis(5));
  p.Record(OperatorId{1}, Millis(1));
  p.Seed(OperatorId{1}, Millis(9));  // ignored: real data exists
  EXPECT_LT(p.Estimate(OperatorId{1}), Millis(5));
}

TEST(ProfilerTest, PerturbationAddsNoiseButNeverNegative) {
  CostProfiler p;
  p.Record(OperatorId{1}, Millis(1));
  p.SetPerturbation(Millis(100));
  bool saw_different = false;
  for (int i = 0; i < 100; ++i) {
    Duration e = p.Estimate(OperatorId{1});
    EXPECT_GE(e, 0);
    if (e != Millis(1)) saw_different = true;
  }
  EXPECT_TRUE(saw_different);
}

TEST(ProfilerTest, ZeroPerturbationIsDeterministic) {
  CostProfiler p;
  p.Record(OperatorId{1}, Millis(3));
  EXPECT_EQ(p.Estimate(OperatorId{1}), p.Estimate(OperatorId{1}));
}

// ---------------- Policies ----------------

PriorityContext MakePc(SimTime t_mf, Duration L, LogicalTime p_mf) {
  PriorityContext pc;
  pc.frontier_time = t_mf;
  pc.latency_constraint = L;
  pc.frontier_progress = p_mf;
  return pc;
}

ReplyContext MakeRc(Duration cm, Duration cpath) {
  ReplyContext rc;
  rc.valid = true;
  rc.cost_m = cm;
  rc.cost_path = cpath;
  return rc;
}

const OperatorId kTargetOp{42};

/// Fixed per-operator cost table standing in for the CostProfiler.
class FakeCostReader final : public CostReader {
 public:
  Duration EstimateCost(OperatorId op) const override {
    auto it = costs_.find(op);
    return it == costs_.end() ? 0 : it->second;
  }
  void Set(OperatorId op, Duration d) { costs_[op] = d; }

 private:
  std::unordered_map<OperatorId, Duration> costs_;
};

TEST(PolicyTest, LlfMatchesEquation3) {
  // ddl = t_MF + L - C_oM - C_path (Eq. 3).
  LeastLaxityFirst llf;
  PriorityContext pc = MakePc(Seconds(10), Millis(800), Seconds(10));
  llf.AssignPriority(pc, MakeRc(Millis(20), Millis(30)), kTargetOp);
  EXPECT_EQ(pc.pri_global, Seconds(10) + Millis(800) - Millis(20) - Millis(30));
  EXPECT_EQ(pc.pri_local, Seconds(10));
}

TEST(PolicyTest, LlfReproducesPaperFig4Example) {
  // Paper §4.2.1: ddl_M2 = 30 + 50 - 20 = 60 (units arbitrary; use ms).
  LeastLaxityFirst llf;
  PriorityContext pc = MakePc(Millis(30), Millis(50), Millis(30));
  llf.AssignPriority(pc, MakeRc(Millis(20), 0), kTargetOp);
  EXPECT_EQ(pc.pri_global, Millis(60));
}

TEST(PolicyTest, EdfOmitsOwnCost) {
  EarliestDeadlineFirst edf;
  PriorityContext pc = MakePc(Seconds(10), Millis(800), Seconds(10));
  edf.AssignPriority(pc, MakeRc(Millis(20), Millis(30)), kTargetOp);
  EXPECT_EQ(pc.pri_global, Seconds(10) + Millis(800) - Millis(30));
}

TEST(PolicyTest, SjfFallsBackToReplyContextCost) {
  ShortestJobFirst sjf;  // no CostReader bound
  PriorityContext pc = MakePc(Seconds(10), Millis(800), Seconds(10));
  sjf.AssignPriority(pc, MakeRc(Millis(20), Millis(30)), kTargetOp);
  EXPECT_EQ(pc.pri_global, Millis(20));
}

TEST(PolicyTest, SjfPrefersBoundCostReader) {
  // The live profiler estimate wins over the (possibly stale) RC snapshot.
  ShortestJobFirst sjf;
  FakeCostReader costs;
  costs.Set(kTargetOp, Millis(7));
  sjf.BindCostReader(&costs);
  PriorityContext pc = MakePc(Seconds(10), Millis(800), Seconds(10));
  sjf.AssignPriority(pc, MakeRc(Millis(20), Millis(30)), kTargetOp);
  EXPECT_EQ(pc.pri_global, Millis(7));
}

TEST(PolicyTest, SjfColdStartIsDeterministicZeroBand) {
  // No estimate from either path: PRI_global pins to 0 (the defined
  // cold-start band), never an uninitialized or comparator-dependent value.
  // Equal priorities then dispatch FIFO by message id.
  ShortestJobFirst sjf;
  FakeCostReader costs;  // empty: every lookup returns 0
  sjf.BindCostReader(&costs);
  PriorityContext pc = MakePc(Seconds(10), Millis(800), Seconds(10));
  pc.pri_global = 12345;  // stale value that must be overwritten
  sjf.AssignPriority(pc, ReplyContext{}, kTargetOp);
  EXPECT_EQ(pc.pri_global, 0);
  ASSERT_EQ(sjf.Counters().size(), 1u);
  EXPECT_EQ(sjf.Counters()[0].name, "cold_starts");
  EXPECT_EQ(sjf.Counters()[0].value, 1);

  // Once the reader has a sample the cold-start band is left.
  costs.Set(kTargetOp, Millis(3));
  sjf.AssignPriority(pc, ReplyContext{}, kTargetOp);
  EXPECT_EQ(pc.pri_global, Millis(3));
  EXPECT_EQ(sjf.Counters()[0].value, 1);  // unchanged
}

TEST(PolicyTest, LlfOrdersByLaxity) {
  // Message A: more headroom; message B: urgent. B must get smaller ddl.
  LeastLaxityFirst llf;
  PriorityContext a = MakePc(Seconds(10), Seconds(100), Seconds(10));
  PriorityContext b = MakePc(Seconds(10), Millis(500), Seconds(10));
  ReplyContext rc = MakeRc(Millis(10), Millis(10));
  llf.AssignPriority(a, rc, kTargetOp);
  llf.AssignPriority(b, rc, kTargetOp);
  EXPECT_LT(b.pri_global, a.pri_global);
}

TEST(PolicyTest, TokenFairUsesTagAndInterval) {
  TokenFair tf;
  PriorityContext pc;
  pc.has_token = true;
  pc.token_tag = Millis(250);
  pc.token_interval = 7;
  tf.AssignPriority(pc, MakeRc(0, 0), kTargetOp);
  EXPECT_EQ(pc.pri_global, Millis(250));
  EXPECT_EQ(pc.pri_local, 7);
}

TEST(PolicyTest, TokenFairFloorsUntokenedTraffic) {
  TokenFair tf;
  PriorityContext pc;
  pc.has_token = false;
  tf.AssignPriority(pc, MakeRc(0, 0), kTargetOp);
  EXPECT_EQ(pc.pri_global, kPriorityFloor);
}

TEST(PolicyTest, StrideRoundRobinsEqualTickets) {
  // Two jobs, equal tickets: passes interleave, so sorting by PRI_global
  // alternates jobs regardless of how many messages each offers.
  StrideFair stride;
  auto assign = [&](JobId job) {
    PriorityContext pc = MakePc(Seconds(1), Millis(800), Seconds(1));
    pc.job = job;
    stride.AssignPriority(pc, ReplyContext{}, kTargetOp);
    return pc.pri_global;
  };
  const JobId a{1}, b{2};
  Priority a0 = assign(a), b0 = assign(b);
  Priority a1 = assign(a), b1 = assign(b);
  Priority a2 = assign(a);
  EXPECT_EQ(a0, b0);  // both join at the (zero) floor
  EXPECT_EQ(a1, b1);
  EXPECT_LT(a0, a1);
  EXPECT_LT(a1, a2);
  EXPECT_EQ(a1 - a0, StrideFair::kStrideScale / kTickets);
}

TEST(PolicyTest, StrideLateJoinerStartsAtPassFloor) {
  // A job joining after another has accumulated pass must not replay the
  // backlog from zero (it would monopolize workers until it caught up).
  StrideFair stride;
  const JobId early{1}, late{2};
  Priority last_early = 0;
  for (int i = 0; i < 10; ++i) {
    PriorityContext pc = MakePc(Seconds(1), Millis(800), Seconds(1));
    pc.job = early;
    stride.AssignPriority(pc, ReplyContext{}, kTargetOp);
    last_early = pc.pri_global;
  }
  PriorityContext pc = MakePc(Seconds(1), Millis(800), Seconds(1));
  pc.job = late;
  stride.AssignPriority(pc, ReplyContext{}, kTargetOp);
  EXPECT_GE(pc.pri_global, last_early);
}

TEST(PolicyTest, LotteryIsDeterministicPerSeed) {
  // Same seed -> bit-identical draw sequence (the fixed-seed replay
  // guarantee); different seed -> a different schedule.
  auto draws = [](std::uint64_t seed) {
    LotteryFair lottery{PolicyOptions{.seed = seed}};
    std::vector<Priority> out;
    for (int i = 0; i < 32; ++i) {
      PriorityContext pc = MakePc(Seconds(1), Millis(800), Seconds(1));
      lottery.AssignPriority(pc, ReplyContext{}, kTargetOp);
      out.push_back(pc.pri_global);
      EXPECT_GE(pc.pri_global, 0);  // -ln(U) >= 0
    }
    return out;
  };
  EXPECT_EQ(draws(7), draws(7));
  EXPECT_NE(draws(7), draws(8));
}

TEST(PolicyTest, MlfqDemotesOnConsumedQuantumAndBoostsPeriodically) {
  MultiLevelFeedback mlfq;
  const OperatorId hog{1}, mouse{2};

  // The hog burns its level-0 allotment: demoted to level 1; the level-1
  // allotment doubles, so the same consumption again demotes to level 2.
  mlfq.OnInvoked(hog, JobId{1}, kMlfqQuantum, Millis(1));
  EXPECT_EQ(mlfq.LevelOf(hog), 1);
  mlfq.OnInvoked(hog, JobId{1}, 2 * kMlfqQuantum - 1, Millis(2));
  EXPECT_EQ(mlfq.LevelOf(hog), 1);  // 1 ns short of the level-1 allotment
  mlfq.OnInvoked(hog, JobId{1}, 1, Millis(3));
  EXPECT_EQ(mlfq.LevelOf(hog), 2);
  EXPECT_EQ(mlfq.LevelOf(mouse), 0);

  // Demoted operators order strictly after level-0 ones.
  PriorityContext hog_pc = MakePc(Seconds(1), Millis(800), Seconds(1));
  mlfq.AssignPriority(hog_pc, ReplyContext{}, hog);
  PriorityContext mouse_pc = MakePc(Seconds(1), Millis(800), Seconds(1));
  mlfq.AssignPriority(mouse_pc, ReplyContext{}, mouse);
  EXPECT_LT(mouse_pc.pri_global, hog_pc.pri_global);

  // The periodic boost returns everyone to level 0.
  mlfq.OnInvoked(mouse, JobId{1}, Millis(1), Millis(3) + kMlfqBoostPeriod);
  EXPECT_EQ(mlfq.LevelOf(hog), 0);
}

TEST(PolicyTest, MlfqNeverDemotesPastBottomLevel) {
  // Each invocation outlasts every level's allotment, so each one demotes
  // until the bottom level holds the operator.
  MultiLevelFeedback mlfq;
  const Duration hog = kMlfqQuantum << kMlfqLevels;
  for (int i = 0; i < 50; ++i) {
    mlfq.OnInvoked(kTargetOp, JobId{1}, hog, Millis(i));
    EXPECT_EQ(mlfq.LevelOf(kTargetOp), std::min(i + 1, kMlfqLevels - 1));
  }
}

TEST(PolicyTest, FactoryCreatesEveryRosterEntry) {
  for (const std::string& name : ValidPolicyNames()) {
    EXPECT_EQ(MakePolicy(name)->name(), name);
  }
}

TEST(PolicyTest, ValidatesNamesAgainstRoster) {
  // The roster derives from the registry table in policies.cpp; the sweep
  // surface (fig11 tournament) iterates it too, so this is the only place
  // that asserts the expected member set.
  const std::vector<std::string> expected = {
      "LLF", "EDF", "SJF", "TokenFair", "Stride", "Lottery", "MLFQ"};
  EXPECT_EQ(ValidPolicyNames(), expected);
  for (const std::string& name : ValidPolicyNames()) {
    EXPECT_TRUE(IsValidPolicyName(name)) << name;
    EXPECT_EQ(MakePolicy(name)->name(), name);
  }
  EXPECT_FALSE(IsValidPolicyName("LIFO"));
  EXPECT_FALSE(IsValidPolicyName("llf"));  // case-sensitive
  EXPECT_FALSE(IsValidPolicyName(""));
}

TEST(PolicyDeathTest, UnknownPolicyFailsFastWithRoster) {
  // The death message must list the *live* roster: build the expected
  // string from ValidPolicyNames() so this test can never pin a stale list.
  std::string expected = "valid policies:";
  for (const std::string& name : ValidPolicyNames()) expected += " " + name;
  EXPECT_DEATH(MakePolicy("LIFO"), expected);
}

// ---------------- TokenBucket ----------------

TEST(TokenBucketTest, GrantsUpToBudgetPerInterval) {
  TokenBucket tb(3, kSecond);
  int granted = 0;
  for (int i = 0; i < 5; ++i) {
    if (tb.TryAcquire(Millis(100) * i).granted) ++granted;
  }
  EXPECT_EQ(granted, 3);
}

TEST(TokenBucketTest, BudgetResetsNextInterval) {
  TokenBucket tb(2, kSecond);
  EXPECT_TRUE(tb.TryAcquire(0).granted);
  EXPECT_TRUE(tb.TryAcquire(1).granted);
  EXPECT_FALSE(tb.TryAcquire(2).granted);
  EXPECT_TRUE(tb.TryAcquire(kSecond).granted);
}

TEST(TokenBucketTest, TagsSpreadEvenlyAcrossInterval) {
  // Paper §5.4: tokens are spread proportionally across the interval.
  TokenBucket tb(4, kSecond);
  EXPECT_EQ(tb.TryAcquire(0).tag, 0);
  EXPECT_EQ(tb.TryAcquire(0).tag, kSecond / 4);
  EXPECT_EQ(tb.TryAcquire(0).tag, 2 * (kSecond / 4));
  EXPECT_EQ(tb.TryAcquire(0).tag, 3 * (kSecond / 4));
}

TEST(TokenBucketTest, HigherRateInterleavesAheadProportionally) {
  // Job A: 2 tokens/s, job B: 4 tokens/s. In tag order, B should appear
  // about twice as often as A.
  TokenBucket a(2), b(4);
  std::vector<std::pair<SimTime, char>> tags;
  for (int i = 0; i < 2; ++i) tags.emplace_back(a.TryAcquire(0).tag, 'a');
  for (int i = 0; i < 4; ++i) tags.emplace_back(b.TryAcquire(0).tag, 'b');
  std::sort(tags.begin(), tags.end());
  // First three tags: b(0), a(0) or interleaved; count b in first half.
  int b_in_first_half = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (tags[i].second == 'b') ++b_in_first_half;
  }
  EXPECT_GE(b_in_first_half, 2);
}

TEST(TokenBucketTest, IntervalIdTracksTime) {
  TokenBucket tb(1, kSecond);
  EXPECT_EQ(tb.TryAcquire(Seconds(5)).interval_id, 5);
  EXPECT_EQ(tb.TryAcquire(Seconds(7) + 1).interval_id, 7);
}

// ---------------- ContextConverter (Algorithm 1) ----------------

class ConverterTest : public ::testing::Test {
 protected:
  ConverterTest() {
    source_ = std::make_unique<SourceOp>("src", CostModel{});
    source_->Bind(OperatorId{0}, StageId{0}, JobId{0});
    agg_ = std::make_unique<WindowAggOp>("agg", WindowSpec::Tumbling(Seconds(1)),
                                         CostModel{}, AggKind::kSum);
    agg_->Bind(OperatorId{1}, StageId{1}, JobId{0});
    sink_ = std::make_unique<SinkOp>("sink", CostModel{});
    sink_->Bind(OperatorId{2}, StageId{2}, JobId{0});
  }

  ConverterOptions EventTimeOptions() {
    ConverterOptions o;
    o.time_domain = TimeDomain::kEventTime;
    return o;
  }

  LeastLaxityFirst llf_;
  std::unique_ptr<SourceOp> source_;
  std::unique_ptr<WindowAggOp> agg_;
  std::unique_ptr<SinkOp> sink_;
};

TEST_F(ConverterTest, SourceContextUsesEquation2ForRegularTarget) {
  ContextConverter conv(&llf_, EventTimeOptions());
  conv.SeedReply(source_->id(), MakeRc(Millis(1), Millis(5)));
  SourceEvent e;
  e.p = Millis(500);
  e.t = Millis(520);
  PriorityContext pc =
      conv.BuildCxtAtSource(e, *source_, /*L=*/Millis(800), MessageId{1});
  // Regular target: no extension; ddl = t + L - C_m - C_path.
  EXPECT_EQ(pc.frontier_progress, Millis(500));
  EXPECT_EQ(pc.frontier_time, Millis(520));
  EXPECT_EQ(pc.pri_global, Millis(520) + Millis(800) - Millis(1) - Millis(5));
  EXPECT_EQ(pc.job, JobId{0});
}

TEST_F(ConverterTest, WindowedTargetExtendsDeadline) {
  // Message at p=200ms targeting a 1 s window: frontier progress is 1 s and,
  // with a learned identity progress map, frontier time is ~1 s -- the
  // deadline extends by the time remaining in the window (paper Eq. 3).
  ContextConverter conv(&llf_, EventTimeOptions());
  conv.SeedReply(agg_->id(), MakeRc(Millis(2), Millis(3)));
  // Teach the progress map that logical time == physical time.
  PriorityContext up;
  up.latency_constraint = Millis(800);
  up.job = JobId{0};
  for (int k = 1; k <= 8; ++k) {
    conv.BuildCxtAtOperator(up, *source_, *agg_, Millis(100) * k,
                            Millis(100) * k, MessageId{k});
  }
  PriorityContext pc = conv.BuildCxtAtOperator(
      up, *source_, *agg_, Millis(850), Millis(850), MessageId{100});
  EXPECT_EQ(pc.frontier_progress, Seconds(1));
  EXPECT_NEAR(static_cast<double>(pc.frontier_time),
              static_cast<double>(Seconds(1)), 1e6);
  EXPECT_NEAR(static_cast<double>(pc.pri_global),
              static_cast<double>(Seconds(1) + Millis(800) - Millis(5)), 1e6);
}

TEST_F(ConverterTest, SemanticsDisabledUsesMessageTime) {
  // Fig. 15 ablation: without query semantics the deadline is Eq. 2 even for
  // windowed targets.
  ConverterOptions opts = EventTimeOptions();
  opts.use_query_semantics = false;
  ContextConverter conv(&llf_, opts);
  conv.SeedReply(agg_->id(), MakeRc(Millis(2), Millis(3)));
  PriorityContext up;
  up.latency_constraint = Millis(800);
  PriorityContext pc = conv.BuildCxtAtOperator(
      up, *source_, *agg_, Millis(850), Millis(870), MessageId{1});
  EXPECT_EQ(pc.frontier_progress, Millis(850));
  EXPECT_EQ(pc.frontier_time, Millis(870));
  EXPECT_EQ(pc.pri_global, Millis(870) + Millis(800) - Millis(5));
}

TEST_F(ConverterTest, ReplyContextAccumulatesCriticalPath) {
  // sink replies (C_sink, 0); agg replies (C_agg, C_sink + 0); source sees
  // path below = C_agg + C_sink (Algorithm 1, PrepareReply).
  ContextConverter sink_conv(&llf_, EventTimeOptions());
  ReplyContext sink_rc = sink_conv.PrepareReply(Millis(1), 0, /*is_sink=*/true);
  EXPECT_EQ(sink_rc.cost_m, Millis(1));
  EXPECT_EQ(sink_rc.cost_path, 0);

  ContextConverter agg_conv(&llf_, EventTimeOptions());
  agg_conv.ProcessCtxFromReply(sink_->id(), sink_rc);
  ReplyContext agg_rc = agg_conv.PrepareReply(Millis(4), 0, /*is_sink=*/false);
  EXPECT_EQ(agg_rc.cost_m, Millis(4));
  EXPECT_EQ(agg_rc.cost_path, Millis(1));

  ContextConverter src_conv(&llf_, EventTimeOptions());
  src_conv.ProcessCtxFromReply(agg_->id(), agg_rc);
  const ReplyContext& rc = src_conv.RcFor(agg_->id());
  EXPECT_EQ(rc.cost_m, Millis(4));
  EXPECT_EQ(rc.cost_path, Millis(1));
}

TEST_F(ConverterTest, CriticalPathTakesMaxOverFanOut) {
  ContextConverter conv(&llf_, EventTimeOptions());
  conv.ProcessCtxFromReply(OperatorId{10}, MakeRc(Millis(2), Millis(1)));
  conv.ProcessCtxFromReply(OperatorId{11}, MakeRc(Millis(5), Millis(4)));
  ReplyContext rc = conv.PrepareReply(Millis(1), 0, false);
  EXPECT_EQ(rc.cost_path, Millis(9));  // max(2+1, 5+4)
}

TEST_F(ConverterTest, InvalidRepliesIgnored) {
  ContextConverter conv(&llf_, EventTimeOptions());
  ReplyContext invalid;  // valid = false
  conv.ProcessCtxFromReply(OperatorId{10}, invalid);
  EXPECT_EQ(conv.RcFor(OperatorId{10}).cost_m, 0);
}

TEST_F(ConverterTest, SeedDoesNotOverrideRealReply) {
  ContextConverter conv(&llf_, EventTimeOptions());
  conv.ProcessCtxFromReply(OperatorId{10}, MakeRc(Millis(7), 0));
  conv.SeedReply(OperatorId{10}, MakeRc(Millis(99), 0));
  EXPECT_EQ(conv.RcFor(OperatorId{10}).cost_m, Millis(7));
}

TEST_F(ConverterTest, ReplyViewMatchesMapReferenceAtFanOut64) {
  // 64 downstream targets; a random mix of valid replies, invalid replies
  // (ignored) and seeds (applied only before a target's first reply or
  // seed), replayed against a std::map. Every step checks the touched
  // target's RC and PrepareReply's critical-path max; every 64th step checks
  // all targets, including ones never heard from.
  constexpr int kTargets = 64;
  ContextConverter conv(&llf_, EventTimeOptions());
  std::map<OperatorId, ReplyContext> ref;
  Rng rng(64);
  auto expect_rc = [&](OperatorId op, const std::string& where) {
    const auto it = ref.find(op);
    const ReplyContext want = it == ref.end() ? ReplyContext{} : it->second;
    const ReplyContext got = conv.RcFor(op);
    EXPECT_EQ(got.valid, want.valid) << where;
    EXPECT_EQ(got.cost_m, want.cost_m) << where;
    EXPECT_EQ(got.cost_path, want.cost_path) << where;
    EXPECT_EQ(got.queueing_delay, want.queueing_delay) << where;
  };
  for (int step = 0; step < 4000; ++step) {
    const OperatorId op{100 + rng.UniformInt(0, kTargets - 1)};
    ReplyContext rc = MakeRc(rng.UniformInt(0, Millis(50)),
                             rng.UniformInt(0, Millis(50)));
    rc.queueing_delay = rng.UniformInt(0, Millis(5));
    const std::int64_t kind = rng.UniformInt(0, 9);
    if (kind < 6) {
      conv.ProcessCtxFromReply(op, rc);
      ref[op] = rc;
    } else if (kind < 8) {
      rc.valid = false;
      conv.ProcessCtxFromReply(op, rc);
    } else {
      conv.SeedReply(op, rc);
      ref.emplace(op, rc);
    }
    const std::string where = "step " + std::to_string(step);
    expect_rc(op, where);
    Duration best = 0;
    for (const auto& [id, down] : ref) {
      best = std::max(best, down.cost_m + down.cost_path);
    }
    const ReplyContext up = conv.PrepareReply(Millis(3), Millis(1), false);
    EXPECT_TRUE(up.valid);
    EXPECT_EQ(up.cost_m, Millis(3));
    EXPECT_EQ(up.queueing_delay, Millis(1));
    EXPECT_EQ(up.cost_path, best) << where;
    EXPECT_EQ(conv.PrepareReply(Millis(3), 0, true).cost_path, 0);
    if (step % kTargets == 0) {
      for (int t = 0; t < kTargets + 4; ++t) {
        expect_rc(OperatorId{100 + t}, where);
      }
    }
  }
  EXPECT_EQ(ref.size(), static_cast<std::size_t>(kTargets));
}

TEST_F(ConverterTest, TokenStateInheritedDownstream) {
  ContextConverter conv(&llf_, EventTimeOptions());
  PriorityContext up;
  up.has_token = true;
  up.token_tag = Millis(42);
  up.token_interval = 3;
  up.latency_constraint = Millis(800);
  PriorityContext pc = conv.BuildCxtAtOperator(
      up, *source_, *sink_, Seconds(1), Seconds(1), MessageId{1});
  EXPECT_TRUE(pc.has_token);
  EXPECT_EQ(pc.token_tag, Millis(42));
  EXPECT_EQ(pc.token_interval, 3);
}

TEST_F(ConverterTest, QueueingDelayReported) {
  ContextConverter conv(&llf_, EventTimeOptions());
  ReplyContext rc = conv.PrepareReply(Millis(1), Millis(17), true);
  EXPECT_EQ(rc.queueing_delay, Millis(17));
}

}  // namespace
}  // namespace cameo
