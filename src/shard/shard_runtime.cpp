#include "shard/shard_runtime.h"

#include <algorithm>
#include <utility>

namespace cameo::shard {

ShardRuntime::ShardRuntime(const EngineOptions& options,
                           std::unique_ptr<Transport> transport)
    : num_shards_(options.shards),
      workers_per_shard_(options.workers),
      admission_limit_(options.sim.admission_limit),
      placement_(options.shards, options.seed),
      transport_(std::move(transport)) {
  ValidateEngineOptions(options);
  shards_.reserve(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    Shard sh;
    // Same constructor arguments for every shard -- and, at one shard,
    // exactly the arguments the pre-shard runtime passed, which is half of
    // the bit-identity argument (the other half: no cross-shard edges).
    sh.policy = MakePolicy(options.policy, PolicyOptions{.seed = options.seed});
    sh.scheduler =
        MakeScheduler(options.scheduler, workers_per_shard_, options.sched);
    shards_.push_back(std::move(sh));
  }
  if (transport_ == nullptr) {
    transport_ = std::make_unique<InprocTransport>(kDefaultLink, options.seed);
  }
  // Chaos wiring: an armed fault plan wraps the transport in the injecting
  // decorator and force-enables the session layer (raw faults without
  // reliable delivery would break the watermark contract). Default seeds are
  // re-keyed to the run seed so `seed` alone reproduces a chaos run.
  wire_ = transport_.get();
  SessionConfig session = options.sim.shard_session;
  if (options.sim.shard_faults.any()) {
    FaultPlan faults = options.sim.shard_faults;
    if (faults.seed == 1) faults.seed = options.seed;
    fault_transport_ =
        std::make_unique<FaultInjectingTransport>(transport_.get(), faults);
    wire_ = fault_transport_.get();
    session.enabled = true;
  }
  wire_->Start(num_shards_);
  if (session.enabled) {
    if (session.seed == 1) session.seed = options.seed;
    session_ = std::make_unique<SessionLayer>(session, wire_);
    session_->Start(num_shards_);
  }
}

void ShardRuntime::BindCostReader(const CostReader* reader) {
  for (Shard& sh : shards_) sh.policy->BindCostReader(reader);
}

bool ShardRuntime::ShouldShed(const Shard& sh, const Message& m) const {
  if (admission_limit_ == 0) return false;
  const std::size_t pending = sh.scheduler->pending();
  if (pending < admission_limit_) return false;
  // Hard limit: refuse everything rather than grow without bound.
  if (pending >= 2 * admission_limit_) return true;
  // Soft band: refuse work less urgent (larger PRI_global) than what the
  // shard has been admitting, so deadline-critical messages still get in
  // while background work absorbs the shedding.
  const std::int64_t ewma = sh.admit_pri_ewma.load(std::memory_order_relaxed);
  return m.pc.pri_global * 16 > ewma;
}

int ShardRuntime::Enqueue(Message m, WorkerId global_producer, SimTime now) {
  const int shard = ShardOf(m.target);
  Shard& sh = shards_[Idx(shard)];
  if (ShouldShed(sh, m)) {
    sh.shed.fetch_add(1, std::memory_order_relaxed);
    m.batch.Recycle();  // shedding must not leak pooled columns
    return shard;
  }
  if (admission_limit_ > 0) {
    // EWMA in x16 fixed point with alpha = 1/16.
    const std::int64_t pri = m.pc.pri_global * 16;
    std::int64_t ewma = sh.admit_pri_ewma.load(std::memory_order_relaxed);
    sh.admit_pri_ewma.store(ewma + (pri - ewma) / 16,
                            std::memory_order_relaxed);
  }
  WorkerId producer;  // invalid: external arrival
  if (global_producer.valid() && ShardOfWorker(global_producer) == shard) {
    producer = LocalWorker(global_producer);
  }
  sh.scheduler->Enqueue(std::move(m), producer, now);
  return shard;
}

SimTime ShardRuntime::SendMessage(int from, int to, SimTime now,
                                  const Message& m) {
  WireFrame frame = AcquireFrame();
  EncodeMessage(m, frame);
  frames_encoded_.fetch_add(1, std::memory_order_relaxed);
  bytes_encoded_.fetch_add(frame.bytes.size(), std::memory_order_relaxed);
  if (session_ != nullptr) return session_->Send(from, to, now, std::move(frame));
  return wire_->Send(from, to, now, std::move(frame));
}

SimTime ShardRuntime::SendReply(int from, int to, SimTime now,
                                OperatorId sender, OperatorId reply_from,
                                const ReplyContext& rc) {
  WireFrame frame = AcquireFrame();
  EncodeReply(sender, reply_from, rc, frame);
  frames_encoded_.fetch_add(1, std::memory_order_relaxed);
  bytes_encoded_.fetch_add(frame.bytes.size(), std::memory_order_relaxed);
  if (session_ != nullptr) return session_->Send(from, to, now, std::move(frame));
  return wire_->Send(from, to, now, std::move(frame));
}

ReceiveKind ShardRuntime::ReceiveOne(int shard, SimTime now, Message& msg,
                                     WireReply& reply) {
  Idx(shard);  // bounds check
  WireFrame frame;
  int from = -1;
  const bool got = session_ != nullptr
                       ? session_->Receive(shard, now, frame, from)
                       : wire_->Receive(shard, now, frame, from);
  if (!got) return ReceiveKind::kNone;
  // The session validated the frame's checksum on its way in; the raw
  // transport path has only the decode to catch corruption.
  const Checksum crc =
      session_ != nullptr ? Checksum::kTrusted : Checksum::kVerify;
  FrameKind kind;
  ReceiveKind result = ReceiveKind::kNone;
  if (PeekFrameKind(frame, kind)) {
    if (kind == FrameKind::kData && DecodeMessage(frame, msg, crc)) {
      result = ReceiveKind::kMessage;
    } else if (kind == FrameKind::kReply && DecodeReply(frame, reply, crc)) {
      result = ReceiveKind::kReply;
    }
  }
  if (result == ReceiveKind::kNone) {
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
  } else {
    frames_decoded_.fetch_add(1, std::memory_order_relaxed);
  }
  ReleaseFrame(std::move(frame));
  return result;
}

SimTime ShardRuntime::ServiceSession(
    int shard, SimTime now,
    std::vector<std::pair<int, SimTime>>* deliveries) {
  if (session_ == nullptr) return kTimeMax;
  Idx(shard);  // bounds check
  return session_->Service(shard, now, deliveries);
}

SchedulerStats ShardRuntime::MergedSchedStats() const {
  SchedulerStats total;
  for (const Shard& sh : shards_) {
    const SchedulerStats s = sh.scheduler->stats();
    total.enqueued += s.enqueued;
    total.dispatched += s.dispatched;
    total.operator_swaps += s.operator_swaps;
    total.continuations += s.continuations;
    total.rejected += s.rejected;
    total.purged += s.purged;
    total.shed += sh.shed.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<PolicyCounter> ShardRuntime::PolicyCountersSnapshot() const {
  std::vector<PolicyCounter> merged;
  for (const Shard& sh : shards_) {
    for (const PolicyCounter& c : sh.policy->Counters()) {
      auto it = std::find_if(
          merged.begin(), merged.end(),
          [&](const PolicyCounter& m) { return m.name == c.name; });
      if (it == merged.end()) {
        merged.push_back(c);
      } else {
        it->value += c.value;
      }
    }
  }
  return merged;
}

std::size_t ShardRuntime::TotalPending() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.scheduler->pending();
  return total;
}

std::int64_t ShardRuntime::RetireOperators(const std::vector<OperatorId>& ops) {
  if (num_shards_ == 1) {
    return shards_[0].scheduler->RetireOperators(ops);
  }
  std::int64_t purged = 0;
  std::vector<OperatorId> local;
  for (int s = 0; s < num_shards_; ++s) {
    local.clear();
    for (OperatorId op : ops) {
      if (ShardOf(op) == s) local.push_back(op);
    }
    if (!local.empty()) {
      purged += shards_[Idx(s)].scheduler->RetireOperators(local);
    }
  }
  return purged;
}

TransportStats ShardRuntime::transport_stats() const {
  TransportStats s = wire_->stats();
  if (session_ != nullptr) {
    const TransportStats ses = session_->stats();
    s.retransmits = ses.retransmits;
    s.fast_retransmits = ses.fast_retransmits;
    s.rto_retransmits = ses.rto_retransmits;
    s.out_of_order = ses.out_of_order;
    s.dup_drops = ses.dup_drops;
    s.corrupt_drops = ses.corrupt_drops;
    s.acks_sent = ses.acks_sent;
    s.sent_unique = ses.sent_unique;
    s.delivered = ses.delivered;
  }
  for (const Shard& sh : shards_) {
    s.shed_messages += sh.shed.load(std::memory_order_relaxed);
  }
  return s;
}

WireStats ShardRuntime::wire_stats() const {
  WireStats s;
  s.frames_encoded = frames_encoded_.load(std::memory_order_relaxed);
  s.frames_decoded = frames_decoded_.load(std::memory_order_relaxed);
  s.bytes_encoded = bytes_encoded_.load(std::memory_order_relaxed);
  s.rejected = frames_rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cameo::shard
