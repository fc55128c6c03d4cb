#include "common/rng.h"

#include <bit>
#include <cmath>
#include <limits>
#include <mutex>

#include "common/check.h"

namespace cameo {

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  CAMEO_EXPECTS(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  CAMEO_EXPECTS(mean > 0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Rng::Normal(double mu, double sigma) {
  CAMEO_EXPECTS(sigma >= 0);
  if (sigma == 0) return mu;
  std::normal_distribution<double> dist(mu, sigma);
  return dist(engine_);
}

double Rng::Pareto(double alpha, double x_min) {
  CAMEO_EXPECTS(alpha > 0);
  CAMEO_EXPECTS(x_min > 0);
  // Inverse-CDF sampling: F(x) = 1 - (x_min/x)^alpha.
  double u = Uniform01();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return x_min / std::pow(1.0 - u, 1.0 / alpha);
}

ZipfSampler::Table::Table(std::size_t n_in, double s_in)
    : n(n_in), s(s_in), cdf(n_in) {
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = sum;
  }
  for (double& v : cdf) v /= sum;

  const std::size_t m = std::bit_ceil(n);
  buckets = static_cast<double>(m);
  guide.resize(m + 1);
  std::size_t k = 0;
  for (std::size_t j = 0; j <= m; ++j) {
    const double lo = static_cast<double>(j) / buckets;  // exact
    while (k < n && cdf[k] < lo) ++k;
    guide[j] = static_cast<std::uint32_t>(k);
  }
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  CAMEO_EXPECTS(n > 0);
  CAMEO_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  // Reuse the last table built when (n, s) matches. Keeping only the last
  // one bounds the memo to one table beyond those live samplers hold, while
  // every replica of one keyed source still shares a single build.
  static std::mutex mu;
  static std::shared_ptr<const Table> last;
  std::lock_guard<std::mutex> lock(mu);
  if (last == nullptr || last->n != n || last->s != s) {
    last = std::make_shared<const Table>(n, s);
  }
  table_ = last;
}

double ZipfSampler::Pmf(std::size_t k) const {
  const std::vector<double>& cdf = table_->cdf;
  CAMEO_EXPECTS(k < cdf.size());
  return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

}  // namespace cameo
