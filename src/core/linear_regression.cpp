#include "core/linear_regression.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.h"

namespace cameo {

OnlineLinearRegression::OnlineLinearRegression(std::size_t window)
    : window_(window) {
  CAMEO_EXPECTS(window >= 2 && window <= kMaxWindow);
  points_.reserve(window);
}

void OnlineLinearRegression::Observe(LogicalTime x, SimTime y) {
  std::int64_t dx = 0, dy = 0;
  if (!OffsetFromAnchor(x, y, dx, dy)) {
    Reanchor(x, y);
    dx = dy = 0;  // (x, y) is the anchor now
  }
  if (points_.size() < window_) {
    points_.emplace_back(dx, dy);
  } else {
    auto& evicted = points_[oldest_];
    Add(evicted.first, evicted.second, -1);
    evicted = {dx, dy};  // overwrite the oldest point
    oldest_ = oldest_ + 1 == window_ ? 0 : oldest_ + 1;
  }
  Add(dx, dy, 1);
  dirty_ = true;
}

bool OnlineLinearRegression::OffsetFromAnchor(LogicalTime x, SimTime y,
                                              std::int64_t& dx,
                                              std::int64_t& dy) const {
  return !__builtin_sub_overflow(x, x0_, &dx) &&
         !__builtin_sub_overflow(y, y0_, &dy) && dx > -kMaxOffset &&
         dx < kMaxOffset && dy > -kMaxOffset && dy < kMaxOffset;
}

void OnlineLinearRegression::Reanchor(LogicalTime x, SimTime y) {
  const LogicalTime old_x0 = x0_;
  const SimTime old_y0 = y0_;
  x0_ = x;
  y0_ = y;
  // Oldest first, so the kept points form a ring whose head is index 0.
  std::rotate(points_.begin(),
              points_.begin() + static_cast<std::ptrdiff_t>(oldest_),
              points_.end());
  oldest_ = 0;
  sx_ = sy_ = sxx_ = sxy_ = 0;
  std::size_t kept = 0;
  for (const auto& [ox, oy] : points_) {
    // Offset plus old anchor is the observed point, an int64 again.
    std::int64_t dx = 0, dy = 0;
    if (!OffsetFromAnchor(ox + old_x0, oy + old_y0, dx, dy)) continue;
    points_[kept++] = {dx, dy};  // kept <= the index being read
    Add(dx, dy, 1);
  }
  points_.resize(kept);
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
  // x̄ and ȳ from the exact unshifted sums n·x0 + Σ(x − x0), |·| < 2^74.
  // They are converted first: computed last, GCC 12 -O3 kept sy_ in an SSE
  // register, loaded with one 16-byte read right after Observe's two 8-byte
  // stores, which cannot forward; the fit measured ~8 ns slower.
  const auto n64 = static_cast<std::int64_t>(points_.size());
  const auto sum_x =
      static_cast<double>(static_cast<__int128>(x0_) * n64 + sx_);
  const auto sum_y =
      static_cast<double>(static_cast<__int128>(y0_) * n64 + sy_);
  const auto n = static_cast<__int128>(n64);
  // n·Σx² − (Σx)² is n² times the variance of x: zero for fewer than two
  // points or all x identical (slope undefined), never negative.
  const __int128 den = n * sxx_ - sx_ * sx_;
  if (den <= 0) return;
  const __int128 num = n * sxy_ - sx_ * sy_;
  const auto nd = static_cast<double>(n64);
  alpha_ = static_cast<double>(num) / static_cast<double>(den);
  gamma_ = sum_y / nd - alpha_ * (sum_x / nd);
  ready_ = true;
}

}  // namespace cameo
