// Deterministic random number generation for workloads and noise injection.
//
// Every stochastic component takes an explicit `Rng&` (never a global) so a
// simulation run is reproducible from a single seed. The Pareto distribution
// mirrors the paper's Section 6.2 "Pareto event arrival" experiments; the
// power-law (Zipf) sampler models Figure 2(a)'s long-tail volume distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

namespace cameo {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform in [0, 1).
  double Uniform01() { return unit_(engine_); }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform01(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Normal with mean mu and standard deviation sigma (>= 0).
  double Normal(double mu, double sigma);

  /// Pareto with shape alpha (> 0) and scale x_min (> 0): support [x_min, inf).
  /// Mean = alpha * x_min / (alpha - 1) for alpha > 1.
  double Pareto(double alpha, double x_min);

  /// Bernoulli trial.
  bool Chance(double p) { return Uniform01() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Zipf sampler over ranks {0, ..., n-1} with exponent s: P(k) ~ 1/(k+1)^s.
/// Used to synthesize the long-tailed per-stream volume split of Fig. 2(a)
/// and the skewed key streams of the keyed workloads.
///
/// A draw inverts the CDF at u ~ U[0, 1) in O(1) expected time with a guide
/// table (Chen & Asau's indexed search): for m = bit_ceil(n) buckets,
/// guide[j] is the first rank whose CDF is >= j/m. Since m is a power of two,
/// j = floor(u * m) is exact and j/m <= u < (j+1)/m, so the answer lies in
/// [guide[j], guide[j+1]] and a short forward scan finds it. The result is
/// exactly the rank a binary search (lower_bound) over the same CDF returns,
/// clamped to n-1, so every draw is reproducible from the seed.
///
/// The CDF and guide form one immutable table shared by every sampler with
/// the same (n, s): the most recently built table is memoized process-wide,
/// so per-replica samplers of one key universe do the O(n) build once.
/// Construction is thread-safe; Sample/Pmf are const and lock-free.
class ZipfSampler {
 public:
  /// Requires 1 <= n <= UINT32_MAX.
  ZipfSampler(std::size_t n, double s);

  std::size_t Sample(Rng& rng) const {
    const Table& t = *table_;
    const double u = rng.Uniform01();
    // u < 1 and m is a power of two, so u * m is exact and j <= m - 1.
    const auto j = static_cast<std::size_t>(u * t.buckets);
    std::size_t k = t.guide[j];
    const std::size_t hi = t.guide[j + 1];
    while (k < hi && t.cdf[k] < u) ++k;
    return k < t.n ? k : t.n - 1;
  }

  /// Probability mass of rank k (for tests and workload sizing).
  double Pmf(std::size_t k) const;

 private:
  // The immutable part of a sampler. `guide` has m + 1 entries: the sentinel
  // guide[m] (the first rank with CDF >= 1, or n) bounds the scan of the
  // last bucket like any other.
  struct Table {
    Table(std::size_t n, double s);

    std::size_t n;
    double s;
    double buckets;  // m = bit_ceil(n), a power of two
    std::vector<double> cdf;
    std::vector<std::uint32_t> guide;
  };

  std::shared_ptr<const Table> table_;
};

}  // namespace cameo
