// ShardRuntime: the multi-machine layer of the runtime.
//
// Partitions a DataflowGraph's operators across N shards (consistent-hash
// placement, placement.h), runs one Scheduler + SchedulingPolicy instance
// per shard -- two shards share *no* scheduling state, exactly like two
// machines of the paper's deployment -- and ships every cross-shard message
// and reply ack through the wire codec over a Transport. What crosses a
// shard boundary is precisely the serialized frame: PriorityContext,
// EventBatch columns, and the batch's progress watermark, so Cameo's
// timestamp-based coordination (§5.3) works end-to-end without shared
// memory.
//
// Worker-id convention: the embedding runtime addresses workers globally
// (0 .. num_shards * workers_per_shard - 1); each shard's scheduler sees
// only its local ids (0 .. workers_per_shard - 1). global = shard *
// workers_per_shard + local. A producer id crossing a shard boundary is
// dropped to the invalid WorkerId -- to the receiving scheduler a remote
// message is an external arrival, which is also what keeps the Orleans
// bag model's thread-affinity strictly shard-local.
//
// Cross-shard watermark contract: a channel's progress never regresses
// because (a) senders emit batches with non-decreasing progress (the
// in-process invariant), (b) the transport delivers each (from, to) channel
// in send order with non-decreasing delivery times, and (c) the decoder
// rebuilds progress bit-exactly. The receiving operator's frontier logic is
// therefore identical whether its upstream is local or remote.
//
// At num_shards == 1 every operator lands on shard 0, no edge crosses a
// boundary, and exactly one scheduler/policy pair exists -- constructed with
// the same arguments the pre-shard runtime used -- so fixed-seed sim replays
// are bit-identical to the single-shard goldens (gated by tests/replay_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/engine_options.h"
#include "core/policies.h"
#include "sched/scheduler.h"
#include "shard/fault_transport.h"
#include "shard/inproc_transport.h"
#include "shard/placement.h"
#include "shard/session.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace cameo::shard {

/// The cross-shard link of the default InprocTransport: 1 ms one-way plus
/// up to 100 us of uniform jitter, per-channel monotone and seeded from the
/// run seed (deterministic replays).
inline constexpr DelayModel kDefaultLink{.base = kMillisecond,
                                         .jitter = Micros(100)};

/// What one Receive() call produced.
enum class ReceiveKind { kNone, kMessage, kReply };

class ShardRuntime {
 public:
  /// `options.workers` is per shard. `transport` replaces the default
  /// InprocTransport over kDefaultLink (the test seam). Armed
  /// `sim.shard_faults` wrap the transport in a FaultInjectingTransport and
  /// turn the session layer on; a default seed (1) of the plan or the
  /// session is re-keyed to `options.seed`. With `sim.admission_limit` > 0,
  /// Enqueue sheds a shard's work past that backlog: the least urgent
  /// first in [limit, 2*limit), everything beyond.
  explicit ShardRuntime(const EngineOptions& options,
                        std::unique_ptr<Transport> transport = nullptr);

  int num_shards() const { return num_shards_; }
  int workers_per_shard() const { return workers_per_shard_; }
  int total_workers() const { return num_shards_ * workers_per_shard_; }

  // ---- placement & id mapping ----

  int ShardOf(OperatorId op) const { return placement_.ShardOf(op); }

  int ShardOfWorker(WorkerId global) const {
    CAMEO_EXPECTS(global.valid() && global.value < total_workers());
    return static_cast<int>(global.value / workers_per_shard_);
  }

  WorkerId LocalWorker(WorkerId global) const {
    CAMEO_EXPECTS(global.valid() && global.value < total_workers());
    return WorkerId{global.value % workers_per_shard_};
  }

  // ---- per-shard instances ----

  Scheduler& scheduler(int shard) { return *shards_[Idx(shard)].scheduler; }
  const Scheduler& scheduler(int shard) const {
    return *shards_[Idx(shard)].scheduler;
  }
  SchedulingPolicy& policy(int shard) { return *shards_[Idx(shard)].policy; }
  /// The policy instance of `op`'s owning shard (converters bind this, so an
  /// operator's send path consults only its own machine's policy state).
  SchedulingPolicy* policy_of(OperatorId op) {
    return shards_[Idx(ShardOf(op))].policy.get();
  }

  /// Binds `reader` into every shard's policy (SJF's profiler read path).
  void BindCostReader(const CostReader* reader);

  // ---- message movement ----

  /// Enqueues `m` at its target's owning shard and returns that shard (so
  /// the caller can kick its workers). A producer from a different shard is
  /// demoted to the invalid WorkerId (external-arrival semantics).
  int Enqueue(Message m, WorkerId global_producer, SimTime now);

  /// Serializes `m` and ships it on the (from, to) transport channel.
  /// Returns the modeled delivery time; the caller schedules a
  /// ReceiveOne(to) no earlier than that.
  SimTime SendMessage(int from, int to, SimTime now, const Message& m);

  /// Ships a reply ack (upstream half of Algorithm 1) the same way.
  SimTime SendReply(int from, int to, SimTime now, OperatorId sender,
                    OperatorId reply_from, const ReplyContext& rc);

  /// Pops and decodes the next due frame addressed to `shard`. Exactly one
  /// of `msg` / `reply` is filled according to the returned kind. A frame
  /// that fails validation is dropped and counted in wire_stats().rejected
  /// (cannot happen on the in-process transports; the counter exists for
  /// the codec tests and real networks). With the session layer enabled,
  /// frames come out exactly once, per-channel ordered, already
  /// checksum-validated -- the session counts a corrupted frame in
  /// transport_stats().corrupt_drops, and the decode skips the checksum.
  ReceiveKind ReceiveOne(int shard, SimTime now, Message& msg,
                         WireReply& reply);

  /// Fires the session layer's due timers for `shard` (retransmits,
  /// standalone acks); each frame put on the wire appends (peer, deliver_at)
  /// to `deliveries` so a discrete-event caller can schedule receive polls.
  /// Returns the next timer deadline (kTimeMax when idle or session off).
  SimTime ServiceSession(int shard, SimTime now,
                         std::vector<std::pair<int, SimTime>>* deliveries);

  bool session_enabled() const { return session_ != nullptr; }

  // ---- merged read-side views ----

  /// Per-shard scheduler stat shards summed on read. Exact at quiescence,
  /// like the single-scheduler stats() it generalizes.
  SchedulerStats MergedSchedStats() const;

  /// Thread-safe mid-run snapshot of every shard's policy counters, merged
  /// by counter name (each policy's Counters() locks internally; no run-end
  /// barrier needed). Counter order follows shard 0's policy roster with
  /// any shard-local extras appended.
  std::vector<PolicyCounter> PolicyCountersSnapshot() const;

  std::size_t TotalPending() const;

  /// Retires `ops` on their owning shards (grouped per shard); returns the
  /// total purged across shards.
  std::int64_t RetireOperators(const std::vector<OperatorId>& ops);

  Transport& transport() { return *wire_; }
  /// Raw transport counters merged with the session layer's robustness
  /// counters and the admission-control shed count: one gate-able view.
  TransportStats transport_stats() const;
  WireStats wire_stats() const;

 private:
  struct Shard {
    std::unique_ptr<SchedulingPolicy> policy;
    std::unique_ptr<Scheduler> scheduler;
    /// EWMA of admitted PRI_global (<<4 fixed point), steering the soft
    /// shedding band toward the priorities the shard actually runs.
    std::atomic<std::int64_t> admit_pri_ewma{0};
    std::atomic<std::uint64_t> shed{0};

    Shard() = default;
    // Construction-time only (the shards_ vector is filled before any
    // concurrency starts); atomics transfer by load/store.
    Shard(Shard&& o) noexcept
        : policy(std::move(o.policy)),
          scheduler(std::move(o.scheduler)),
          admit_pri_ewma(o.admit_pri_ewma.load()),
          shed(o.shed.load()) {}
  };

  std::size_t Idx(int shard) const {
    CAMEO_EXPECTS(shard >= 0 && shard < num_shards_);
    return static_cast<std::size_t>(shard);
  }

  /// True when admission control decides `m` should be refused at `shard`.
  bool ShouldShed(const Shard& sh, const Message& m) const;

  int num_shards_;
  int workers_per_shard_;
  std::size_t admission_limit_;
  ShardPlacement placement_;
  std::vector<Shard> shards_;
  std::unique_ptr<Transport> transport_;
  /// Chaos decorator over `transport_` (present only when faults are armed).
  std::unique_ptr<FaultInjectingTransport> fault_transport_;
  /// The layer Send/Receive actually talk to: the fault decorator when
  /// present, the raw transport otherwise.
  Transport* wire_ = nullptr;
  /// Reliable-delivery layer (present only when enabled/auto-enabled).
  std::unique_ptr<SessionLayer> session_;

  // Wire-codec counters (atomic: senders on different worker threads).
  std::atomic<std::uint64_t> frames_encoded_{0};
  std::atomic<std::uint64_t> frames_decoded_{0};
  std::atomic<std::uint64_t> bytes_encoded_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
};

}  // namespace cameo::shard
