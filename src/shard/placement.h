// Consistent-hash operator placement (paper §3: Cameo runs on a distributed
// actor runtime where operators spread across machines; the placement layer
// decides which shard -- simulated machine / worker process -- owns each
// operator).
//
// A classic consistent-hash ring: every shard contributes `kVirtualNodes`
// points, an operator lands on the first ring point clockwise of its hash.
// Properties the rest of src/shard relies on:
//  - Deterministic: placement is a pure function of (seed, num_shards,
//    OperatorId), so fixed-seed sim replays place identically, and two
//    processes that agree on the config agree on every operator's owner
//    without talking to each other.
//  - Stable under growth: moving from N to N+1 shards relocates ~1/(N+1)
//    of the operators; all others keep their owner (the property that makes
//    shard-count sweeps comparable and would make live re-sharding cheap).
//  - Stage-agnostic: replicas of one stage hash independently, so a
//    parallel stage spreads across shards instead of pinning to one --
//    exactly the paper's "operators of a dataflow spread across machines".
//
// Placement is intentionally *not* derived from any shard-local numbering:
// routing (DataflowGraph::Route) picks target operators from the stage's
// global replica list and only then does the shard layer look up the owner,
// so re-sharding can never change which replica a key maps to (see the
// routing-stability regression tests in tests/shard_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "state/slate_store.h"  // KeyMix: the shared splitmix64 finalizer

namespace cameo::shard {

class ShardPlacement {
 public:
  /// Ring points per shard. 64 keeps the max/mean load ratio under ~1.3 for
  /// the shard counts this repo sweeps (1..16) while the ring stays tiny.
  static constexpr int kVirtualNodes = 64;

  explicit ShardPlacement(int num_shards, std::uint64_t seed = 1)
      : num_shards_(num_shards), seed_(seed) {
    CAMEO_EXPECTS(num_shards >= 1);
    ring_.reserve(static_cast<std::size_t>(num_shards) * kVirtualNodes);
    for (int s = 0; s < num_shards; ++s) {
      for (int v = 0; v < kVirtualNodes; ++v) {
        const auto id = static_cast<std::uint64_t>(s) * kVirtualNodes +
                        static_cast<std::uint64_t>(v);
        ring_.push_back({KeyMix(static_cast<std::int64_t>(
                             id ^ (seed * 0x9E3779B97F4A7C15ULL))),
                         s});
      }
    }
    std::sort(ring_.begin(), ring_.end());
    // jump_[b] = first ring point at or after bucket b's start hash.
    jump_.resize(std::size_t{1} << kJumpBits);
    std::size_t i = 0;
    for (std::size_t b = 0; b < jump_.size(); ++b) {
      const std::uint64_t start = static_cast<std::uint64_t>(b)
                                  << (64 - kJumpBits);
      while (i < ring_.size() && ring_[i].hash < start) ++i;
      jump_[b] = static_cast<std::uint32_t>(i);
    }
  }

  int num_shards() const { return num_shards_; }

  /// Owning shard of `op`: the first ring point whose hash is >= the
  /// operator's (what std::lower_bound returns), wrapping past the end.
  /// Pure and O(1) expected: the jump table starts the scan at the first
  /// ring point of the hash's top-bits bucket, and a bucket holds at most
  /// one ring point on average up to 16 shards.
  int ShardOf(OperatorId op) const {
    if (num_shards_ == 1) return 0;
    const std::uint64_t h =
        KeyMix(op.value ^ static_cast<std::int64_t>(seed_ << 1));
    std::size_t i = jump_[h >> (64 - kJumpBits)];
    while (i < ring_.size() && ring_[i].hash < h) ++i;
    if (i == ring_.size()) i = 0;  // wrap
    return ring_[i].shard;
  }

 private:
  struct Point {
    std::uint64_t hash;
    int shard;
    friend bool operator<(const Point& a, const Point& b) {
      return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
    }
  };

  /// Jump-table resolution: the top kJumpBits of a hash pick a bucket.
  static constexpr int kJumpBits = 10;

  int num_shards_;
  std::uint64_t seed_;
  std::vector<Point> ring_;
  std::vector<std::uint32_t> jump_;
};

}  // namespace cameo::shard
