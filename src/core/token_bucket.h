// Token issuance for proportional fair sharing (paper §5.4).
//
// Each dataflow is granted tokens per unit interval according to its target
// ingestion rate. Tokens are spread evenly across the interval: token i of
// interval k carries tag k*interval + i*(interval/budget), so two jobs'
// tokened messages interleave in tag order proportionally to their rates.
// Messages that exceed the budget get no token and are served only when no
// tokened traffic is pending.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/check.h"
#include "common/time.h"
#include "core/context_converter.h"
#include "dataflow/graph.h"

namespace cameo {

class TokenBucket {
 public:
  struct Token {
    bool granted = false;
    SimTime tag = 0;
    std::int64_t interval_id = 0;
  };

  /// `tokens_per_interval` messages are granted per `interval` of physical
  /// time (the paper's example spreads tokens over 1 second).
  TokenBucket(std::int64_t tokens_per_interval, Duration interval = kSecond)
      : budget_(tokens_per_interval), interval_(interval) {
    CAMEO_EXPECTS(tokens_per_interval > 0);
    CAMEO_EXPECTS(interval > 0);
  }

  /// Requests a token for a message arriving at `now`.
  Token TryAcquire(SimTime now) {
    std::int64_t interval_id = now / interval_;
    if (interval_id != current_interval_) {
      current_interval_ = interval_id;
      used_ = 0;
    }
    Token t;
    t.interval_id = interval_id;
    if (used_ >= budget_) return t;  // budget exhausted: no token
    t.granted = true;
    t.tag = interval_id * interval_ + used_ * (interval_ / budget_);
    ++used_;
    return t;
  }

 private:
  std::int64_t budget_;
  Duration interval_;
  std::int64_t current_interval_ = -1;
  std::int64_t used_ = 0;
};

/// One source replica's share of its job's token rate (at least 1 token per
/// second), or none when the job sets no rate. Both backends stamp every
/// source event through one, so a rate means the same on either.
class SourceTokens {
 public:
  SourceTokens() = default;
  explicit SourceTokens(const JobSpec& spec) {
    if (spec.token_rate_per_sec <= 0) return;
    bucket_.emplace(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(spec.token_rate_per_sec)));
  }

  /// Stamps `e` with the token granted at its arrival `e.t`, if any.
  void Fill(SourceEvent& e) {
    if (!bucket_) return;
    const TokenBucket::Token t = bucket_->TryAcquire(e.t);
    e.has_token = t.granted;
    e.token_tag = t.tag;
    e.token_interval = t.interval_id;
  }

 private:
  std::optional<TokenBucket> bucket_;
};

}  // namespace cameo
