#include "core/policies.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "core/profiler.h"

namespace cameo {

void LeastLaxityFirst::AssignPriority(PriorityContext& pc,
                                      const ReplyContext& rc,
                                      OperatorId /*target*/) {
  pc.pri_local = pc.frontier_progress;
  pc.pri_global =
      pc.frontier_time + pc.latency_constraint - rc.cost_m - rc.cost_path;
}

void EarliestDeadlineFirst::AssignPriority(PriorityContext& pc,
                                           const ReplyContext& rc,
                                           OperatorId /*target*/) {
  pc.pri_local = pc.frontier_progress;
  // EDF considers the deadline prior to the operator executing, i.e. the
  // LLF expression without the target operator's own cost (paper §4.2.2).
  pc.pri_global = pc.frontier_time + pc.latency_constraint - rc.cost_path;
}

void ShortestJobFirst::AssignPriority(PriorityContext& pc,
                                      const ReplyContext& rc,
                                      OperatorId target) {
  pc.pri_local = pc.frontier_progress;
  // Prefer the live profiler estimate (linear-regression/EWMA cost model)
  // over the possibly stale cost snapshot the last acknowledgement carried.
  Duration cost = costs_ != nullptr ? costs_->EstimateCost(target) : 0;
  if (cost <= 0 && rc.valid) cost = rc.cost_m;
  if (cost <= 0) {
    // Cold start: no estimate from either path. PRI_global = 0 is the
    // defined tie-break band — equal priorities dispatch FIFO by message id
    // (ReadyKey / mailbox heap order), never comparator-dependent.
    cold_starts_.fetch_add(1, std::memory_order_relaxed);
    pc.pri_global = 0;
    return;
  }
  pc.pri_global = cost;
}

std::vector<PolicyCounter> ShortestJobFirst::Counters() const {
  return {{"cold_starts", cold_starts_.load(std::memory_order_relaxed)}};
}

void TokenFair::AssignPriority(PriorityContext& pc, const ReplyContext& /*rc*/,
                               OperatorId /*target*/) {
  if (pc.has_token) {
    pc.pri_local = pc.token_interval;
    pc.pri_global = pc.token_tag;
  } else {
    pc.pri_local = kPriorityFloor;
    pc.pri_global = kPriorityFloor;
  }
}

void StrideFair::AssignPriority(PriorityContext& pc, const ReplyContext& /*rc*/,
                                OperatorId /*target*/) {
  pc.pri_local = pc.frontier_progress;
  std::lock_guard lock(mu_);
  auto [it, inserted] = jobs_.try_emplace(pc.job);
  JobState& js = it->second;
  if (inserted) {
    // Stride join rule: start at the global pass floor so a late tenant
    // neither monopolizes workers (pass too low) nor starves (too high).
    js.pass = pass_floor_;
    js.stride = kStrideScale / kTickets;
    ++joins_;
  }
  pc.pri_global = js.pass;
  pass_floor_ = std::max(pass_floor_, js.pass);
  js.pass += js.stride;
}

std::vector<PolicyCounter> StrideFair::Counters() const {
  std::lock_guard lock(mu_);
  return {{"jobs_joined", joins_}, {"pass_floor", pass_floor_}};
}

void LotteryFair::AssignPriority(PriorityContext& pc,
                                 const ReplyContext& /*rc*/,
                                 OperatorId /*target*/) {
  pc.pri_local = pc.frontier_progress;
  std::lock_guard lock(mu_);
  // Exponential race: min-of-exponentials wins proportionally to tickets,
  // so ordering pending messages by this draw is a ticket-weighted lottery.
  double u = std::max(rng_.Uniform01(), 1e-12);
  pc.pri_global = static_cast<Priority>(-std::log(u) * kLotteryScale /
                                        static_cast<double>(kTickets));
  ++draws_;
}

std::vector<PolicyCounter> LotteryFair::Counters() const {
  std::lock_guard lock(mu_);
  return {{"draws", draws_}};
}

void MultiLevelFeedback::AssignPriority(PriorityContext& pc,
                                        const ReplyContext& /*rc*/,
                                        OperatorId target) {
  pc.pri_local = pc.frontier_progress;
  std::lock_guard lock(mu_);
  const OpState& st = ops_[target];  // new operators start at level 0
  pc.pri_global = static_cast<Priority>(st.level) * kLevelBand + seq_++;
}

void MultiLevelFeedback::OnInvoked(OperatorId op, JobId /*job*/,
                                   Duration measured, SimTime now) {
  std::lock_guard lock(mu_);
  if (now - last_boost_ >= kMlfqBoostPeriod) {
    // Periodic boost: everyone back to the top level (starvation escape).
    for (auto& [id, st] : ops_) st = OpState{};
    last_boost_ = now;
    ++boosts_;
  }
  OpState& st = ops_[op];
  st.consumed += measured;
  if (st.level < kMlfqLevels - 1 && st.consumed >= AllotmentLocked(st.level)) {
    ++st.level;
    st.consumed = 0;
    ++demotions_;
  }
}

int MultiLevelFeedback::LevelOf(OperatorId op) const {
  std::lock_guard lock(mu_);
  auto it = ops_.find(op);
  return it == ops_.end() ? 0 : it->second.level;
}

std::vector<PolicyCounter> MultiLevelFeedback::Counters() const {
  std::lock_guard lock(mu_);
  return {{"demotions", demotions_}, {"boosts", boosts_}};
}

namespace {

/// The single source of truth for the roster: ValidPolicyNames() and
/// MakePolicy() both walk this table, so the name list and the factory are
/// structurally incapable of drifting apart.
struct PolicyRegistration {
  const char* name;
  std::unique_ptr<SchedulingPolicy> (*make)(const PolicyOptions&);
};

constexpr PolicyRegistration kRegistry[] = {
    {"LLF",
     [](const PolicyOptions&) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<LeastLaxityFirst>();
     }},
    {"EDF",
     [](const PolicyOptions&) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<EarliestDeadlineFirst>();
     }},
    {"SJF",
     [](const PolicyOptions&) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<ShortestJobFirst>();
     }},
    {"TokenFair",
     [](const PolicyOptions&) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<TokenFair>();
     }},
    {"Stride",
     [](const PolicyOptions&) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<StrideFair>();
     }},
    {"Lottery",
     [](const PolicyOptions& o) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<LotteryFair>(o);
     }},
    {"MLFQ",
     [](const PolicyOptions&) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<MultiLevelFeedback>();
     }},
};

}  // namespace

const std::vector<std::string>& ValidPolicyNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const PolicyRegistration& r : kRegistry) names.emplace_back(r.name);
    return names;
  }();
  return kNames;
}

bool IsValidPolicyName(const std::string& name) {
  const std::vector<std::string>& names = ValidPolicyNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

void CheckPolicyName(const std::string& name) {
  if (IsValidPolicyName(name)) return;
  std::fprintf(stderr, "unknown scheduling policy \"%s\"; valid policies:",
               name.c_str());
  for (const std::string& n : ValidPolicyNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  CAMEO_CHECK(false && "unknown policy (see ValidPolicyNames for the roster)");
}

std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& name,
                                             const PolicyOptions& opts) {
  CheckPolicyName(name);
  for (const PolicyRegistration& r : kRegistry) {
    if (name == r.name) return r.make(opts);
  }
  CAMEO_CHECK(false && "unreachable: CheckPolicyName validated the roster");
  return nullptr;
}

}  // namespace cameo
