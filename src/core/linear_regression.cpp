#include "core/linear_regression.h"

#include "common/check.h"

namespace cameo {

OnlineLinearRegression::OnlineLinearRegression(std::size_t window)
    : window_(window) {
  CAMEO_EXPECTS(window >= 2);
  points_.reserve(window);
}

void OnlineLinearRegression::Observe(double x, double y) {
  if (points_.size() < window_) {
    points_.emplace_back(x, y);
  } else {
    points_[oldest_] = {x, y};  // overwrite the oldest point
    oldest_ = oldest_ + 1 == window_ ? 0 : oldest_ + 1;
  }
  dirty_ = true;
}

template <typename Fn>
void OnlineLinearRegression::ForEachOldestFirst(Fn&& fn) const {
  for (std::size_t i = oldest_; i < points_.size(); ++i) {
    fn(points_[i].first, points_[i].second);
  }
  for (std::size_t i = 0; i < oldest_; ++i) {
    fn(points_[i].first, points_[i].second);
  }
}

bool OnlineLinearRegression::Ready() const {
  if (dirty_) Fit();
  return ready_;
}

double OnlineLinearRegression::Predict(double x) const {
  CAMEO_EXPECTS(Ready());
  return alpha_ * x + gamma_;
}

double OnlineLinearRegression::alpha() const {
  if (dirty_) Fit();
  return alpha_;
}

double OnlineLinearRegression::gamma() const {
  if (dirty_) Fit();
  return gamma_;
}

void OnlineLinearRegression::Fit() const {
  dirty_ = false;
  ready_ = false;
  const std::size_t n = points_.size();
  if (n < 2) return;

  // Center on the mean for numerical stability: x values are nanosecond-scale
  // timestamps (1e12+) whose squares would lose precision in double.
  // Sums run oldest to newest: floating-point sums depend on their order,
  // and the replay goldens pin this one.
  double mx = 0, my = 0;
  ForEachOldestFirst([&](double x, double y) {
    mx += x;
    my += y;
  });
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);

  double sxx = 0, sxy = 0;
  ForEachOldestFirst([&](double x, double y) {
    sxx += (x - mx) * (x - mx);
    sxy += (x - mx) * (y - my);
  });
  if (sxx <= 0) return;  // all x identical: slope undefined

  alpha_ = sxy / sxx;
  gamma_ = my - alpha_ * mx;
  ready_ = true;
}

}  // namespace cameo
