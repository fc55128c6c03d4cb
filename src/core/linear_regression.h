// Online windowed linear regression used by PROGRESSMAP (paper §4.3): maps
// logical stream progress to physical frontier time as t = alpha * p + gamma,
// fit over a running window of recent (p, t) observations.
//
// The window is a fixed-capacity ring of integer (p, t) pairs, each stored as
// its offsets from an anchor point (x0, y0) (one vector, reserved at
// construction, plus the index of the oldest point), so observing never
// allocates. The sums Σx, Σy, Σx² and Σxy run over those offsets and are
// kept exactly in `__int128`: Observe subtracts the evicted point and adds
// the new one, and the fit
//   alpha = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²),  gamma = ȳ − alpha·x̄
// reads them without visiting a point. Both sides of alpha's quotient are
// unchanged by shifting every x or every y by a constant, so the anchor does
// not change them by a bit; x̄ and ȳ come from the exact unshifted sums
// n·x0 + Σ(x − x0). The sums are exact, so the fit does not depend on the
// order the points arrived in.
//
// Overflow bound: every point in the window lies within kMaxOffset = 2^53 of
// the anchor on both axes. With n <= kMaxWindow = 1,024 points,
// |Σx|, |Σy| < 2^63 and Σx², |Σxy| < 2^116, so every product above
// (nΣxy, ΣxΣy, nΣx², (Σx)²) is below 2^126 and each difference below 2^127.
//
// The anchor starts at (0, 0), which covers every |p|, |t| < 2^53 (~104
// days in nanoseconds). A point outside that range of the anchor, such as an
// event time in Unix-epoch nanoseconds, becomes the new anchor, and the
// window keeps only the points within range of it. A stream that drifts
// keeps its whole window; a jump of 2^53 or more restarts the fit from the
// new point. Far from zero, gamma and the prediction are large doubles and
// carry their magnitude's rounding (2^-52 relative).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/time.h"

namespace cameo {

class OnlineLinearRegression {
 public:
  /// Largest window for which the exact sums cannot overflow.
  static constexpr std::size_t kMaxWindow = 1024;
  /// Every point in the window is closer than this to the anchor.
  static constexpr std::int64_t kMaxOffset = std::int64_t{1} << 53;

  /// Keeps at most `window` (2..kMaxWindow) most recent observations.
  explicit OnlineLinearRegression(std::size_t window = 64);

  /// Any int64 pair; see the header comment for far-apart points.
  void Observe(LogicalTime x, SimTime y);

  /// True once at least two observations with distinct x are present.
  bool Ready() const;

  /// Least-squares prediction; requires Ready().
  double Predict(double x) const;

  double alpha() const;  // slope
  double gamma() const;  // intercept

  std::size_t size() const { return points_.size(); }

 private:
  void Fit() const;
  /// (x − x0, y − y0) into dx, dy; false when either is kMaxOffset or more
  /// from the anchor.
  bool OffsetFromAnchor(LogicalTime x, SimTime y, std::int64_t& dx,
                        std::int64_t& dy) const;
  /// Adds (sign = 1) or removes (sign = -1) one point's offsets.
  void Add(std::int64_t dx, std::int64_t dy, int sign) {
    sx_ += sign * dx;
    sy_ += sign * dy;
    sxx_ += sign * (static_cast<__int128>(dx) * dx);
    sxy_ += sign * (static_cast<__int128>(dx) * dy);
  }
  /// Moves the anchor to (x, y), re-expresses the window's offsets against
  /// it, drops the points out of range of it and recomputes the sums.
  void Reanchor(LogicalTime x, SimTime y);

  std::size_t window_;
  /// Each point as its offsets (x − x0, y − y0) from the anchor.
  std::vector<std::pair<std::int64_t, std::int64_t>> points_;
  std::size_t oldest_ = 0;  // ring head once the window is full
  LogicalTime x0_ = 0;      // anchor
  SimTime y0_ = 0;
  __int128 sx_ = 0, sy_ = 0, sxx_ = 0, sxy_ = 0;  // over the offsets
  mutable bool dirty_ = true;
  mutable double alpha_ = 1.0;
  mutable double gamma_ = 0.0;
  mutable bool ready_ = false;
};

}  // namespace cameo
