#include "workload/keyed.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {
namespace {

// Appends one keyed unit-value row stamped at the batch's logical time.
inline void AppendRow(EventBatch& batch, std::int64_t key, LogicalTime p) {
  batch.Append(key, 1.0, p);
}

// Checks a key count before it is converted to a size: a negative count
// must fail here, not become a huge allocation.
std::size_t KeyCount(std::int64_t num_keys) {
  CAMEO_EXPECTS(num_keys >= 1);
  return static_cast<std::size_t>(num_keys);
}

}  // namespace

UniformKeys::UniformKeys(std::int64_t num_keys) : num_keys_(num_keys) {
  CAMEO_EXPECTS(num_keys >= 1);
}

void UniformKeys::Fill(EventBatch& batch, std::int64_t tuples, LogicalTime p,
                       Rng& rng) {
  for (std::int64_t i = 0; i < tuples; ++i) {
    AppendRow(batch, rng.UniformInt(0, num_keys_ - 1), p);
  }
}

ZipfKeys::ZipfKeys(std::int64_t num_keys, double s)
    : zipf_(KeyCount(num_keys), s) {}

void ZipfKeys::Fill(EventBatch& batch, std::int64_t tuples, LogicalTime p,
                    Rng& rng) {
  for (std::int64_t i = 0; i < tuples; ++i) {
    AppendRow(batch, static_cast<std::int64_t>(zipf_.Sample(rng)), p);
  }
}

GridKeys::GridKeys(int width, int height, int entities, double hotspot_bias)
    : width_(width),
      height_(height),
      hotspot_bias_(hotspot_bias),
      entities_(static_cast<std::size_t>(entities)) {
  CAMEO_EXPECTS(width >= 1 && height >= 1 && entities >= 1);
  CAMEO_EXPECTS(hotspot_bias >= 0 && hotspot_bias < 1);
}

void GridKeys::Step(Entity& e, Rng& rng) {
  // With probability hotspot_bias_ the entity drifts one cell toward the
  // grid center; otherwise it takes a uniform step in {-1, 0, 1}^2. Either
  // way it stays on the grid.
  int dx;
  int dy;
  if (rng.Chance(hotspot_bias_)) {
    const int cx = width_ / 2;
    const int cy = height_ / 2;
    dx = e.x < cx ? 1 : (e.x > cx ? -1 : 0);
    dy = e.y < cy ? 1 : (e.y > cy ? -1 : 0);
  } else {
    dx = static_cast<int>(rng.UniformInt(-1, 1));
    dy = static_cast<int>(rng.UniformInt(-1, 1));
  }
  e.x = std::clamp(e.x + dx, 0, width_ - 1);
  e.y = std::clamp(e.y + dy, 0, height_ - 1);
}

void GridKeys::Fill(EventBatch& batch, std::int64_t tuples, LogicalTime p,
                    Rng& rng) {
  if (!placed_) {
    // Initial placement is uniform; clustering emerges from the biased walk.
    for (Entity& e : entities_) {
      e.x = static_cast<int>(rng.UniformInt(0, width_ - 1));
      e.y = static_cast<int>(rng.UniformInt(0, height_ - 1));
    }
    placed_ = true;
  }
  // One walk step per batch keeps the cell distribution drifting at the
  // batch cadence (CheetahGIS epochs), independent of the batch size.
  for (Entity& e : entities_) Step(e, rng);
  const std::int64_t n = static_cast<std::int64_t>(entities_.size());
  for (std::int64_t i = 0; i < tuples; ++i) {
    const Entity& e = entities_[static_cast<std::size_t>(
        rng.UniformInt(0, n - 1))];
    AppendRow(batch,
              static_cast<std::int64_t>(e.y) * width_ + e.x, p);
  }
}

}  // namespace cameo
