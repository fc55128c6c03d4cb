// Online windowed linear regression used by PROGRESSMAP (paper §4.3): maps
// logical stream progress to physical frontier time as t = alpha * p + gamma,
// fit over a running window of recent (p, t) observations.
//
// The window is a fixed-capacity ring (one vector, reserved at construction,
// plus the index of the oldest point), so observing never allocates.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/time.h"

namespace cameo {

class OnlineLinearRegression {
 public:
  /// Keeps at most `window` most recent observations.
  explicit OnlineLinearRegression(std::size_t window = 64);

  void Observe(double x, double y);

  /// True once at least two observations with distinct x are present.
  bool Ready() const;

  /// Least-squares prediction; requires Ready().
  double Predict(double x) const;

  double alpha() const;  // slope
  double gamma() const;  // intercept

  std::size_t size() const { return points_.size(); }

 private:
  void Fit() const;
  /// Calls fn(x, y) for every point, oldest first.
  template <typename Fn>
  void ForEachOldestFirst(Fn&& fn) const;

  std::size_t window_;
  std::vector<std::pair<double, double>> points_;
  std::size_t oldest_ = 0;  // ring head once the window is full
  mutable bool dirty_ = true;
  mutable double alpha_ = 1.0;
  mutable double gamma_ = 0.0;
  mutable bool ready_ = false;
};

}  // namespace cameo
