#include "dataflow/graph.h"

#include <algorithm>

#include "state/slate_store.h"

namespace cameo {

DataflowGraph::DataflowGraph() : s_(std::make_unique<State>()) {
  s_->topo.store(new Topology(), std::memory_order_release);
}

template <typename Fn>
void DataflowGraph::Mutate(Fn&& fn) {
  std::lock_guard lock(s_->mutate_mu_);
  const Topology* cur = s_->topo.load(std::memory_order_acquire);
  auto next = std::make_unique<Topology>(*cur);
  fn(*next);
  s_->retired.emplace_back(cur);  // readers may still hold the old snapshot
  s_->topo.store(next.release(), std::memory_order_release);
}

JobId DataflowGraph::AddJob(JobSpec spec) {
  CAMEO_EXPECTS(spec.latency_constraint >= 0);
  JobId id;
  Mutate([&](Topology& t) {
    id = JobId{static_cast<std::int64_t>(t.jobs.size())};
    JobEntry entry;
    entry.spec = std::move(spec);
    t.jobs.push_back(std::move(entry));
  });
  return id;
}

StageId DataflowGraph::AddStage(JobId job, const std::string& name,
                                int parallelism,
                                const OperatorFactory& factory) {
  CAMEO_EXPECTS(job.valid() &&
                static_cast<std::size_t>(job.value) < job_count());
  CAMEO_EXPECTS(parallelism >= 1);
  StageId sid;
  Mutate([&](Topology& t) {
    sid = StageId{static_cast<std::int64_t>(t.stages.size())};
    StageInfo info;
    info.id = sid;
    info.job = job;
    info.name = name;
    info.parallelism = parallelism;
    for (int i = 0; i < parallelism; ++i) {
      auto op = factory(i);
      CAMEO_CHECK(op != nullptr);
      OperatorId oid{static_cast<std::int64_t>(t.operators.size())};
      op->Bind(oid, sid, job);
      info.operators.push_back(oid);
      t.operators.push_back(op.get());
      s_->owned_operators.push_back(std::move(op));
    }
    t.stages.push_back(std::move(info));
    t.jobs[static_cast<std::size_t>(job.value)].stages.push_back(sid);
  });
  return sid;
}

int DataflowGraph::Connect(StageId from, StageId to, Partition partition,
                           int split) {
  CAMEO_EXPECTS(split >= 1);
  CAMEO_EXPECTS(split == 1 || partition == Partition::kKeyHash);
  int port = -1;
  Mutate([&](Topology& t) {
    CAMEO_EXPECTS(from.valid() &&
                  static_cast<std::size_t>(from.value) < t.stages.size());
    CAMEO_EXPECTS(to.valid() &&
                  static_cast<std::size_t>(to.value) < t.stages.size());
    StageInfo& src = t.stages[static_cast<std::size_t>(from.value)];
    StageInfo& dst = t.stages[static_cast<std::size_t>(to.value)];
    CAMEO_EXPECTS(src.job == dst.job);
    if (partition == Partition::kOneToOne) {
      CAMEO_EXPECTS(src.parallelism == dst.parallelism);
    }
    src.downstream.push_back(to);
    src.partition.push_back(partition);
    src.split.push_back(split);
    dst.upstream.push_back(from);
    port = static_cast<int>(src.downstream.size()) - 1;
  });
  return port;
}

JobHandles DataflowGraph::AddQuery(const QueryBuilder& build) {
  std::size_t jobs_before = job_count();
  JobHandles h = build(*this);
  CAMEO_CHECK(h.job.valid() &&
              static_cast<std::size_t>(h.job.value) >= jobs_before &&
              static_cast<std::size_t>(h.job.value) < job_count());
  CAMEO_CHECK(query_live(h.job));
  return h;
}

std::vector<OperatorId> DataflowGraph::RemoveQuery(JobId job) {
  std::vector<OperatorId> ops = OperatorsOf(job);
  Mutate([&](Topology& t) {
    JobEntry& entry = t.jobs[static_cast<std::size_t>(job.value)];
    CAMEO_EXPECTS(entry.live);
    entry.live = false;
  });
  return ops;
}

bool DataflowGraph::query_live(JobId job) const {
  return job_entry(job).live;
}

std::size_t DataflowGraph::live_job_count() const {
  const Topology* t = topo();
  return static_cast<std::size_t>(
      std::count_if(t->jobs.begin(), t->jobs.end(),
                    [](const JobEntry& j) { return j.live; }));
}

Operator& DataflowGraph::Get(OperatorId id) {
  const Topology* t = topo();
  CAMEO_EXPECTS(id.valid() &&
                static_cast<std::size_t>(id.value) < t->operators.size());
  return *t->operators[static_cast<std::size_t>(id.value)];
}

const Operator& DataflowGraph::Get(OperatorId id) const {
  const Topology* t = topo();
  CAMEO_EXPECTS(id.valid() &&
                static_cast<std::size_t>(id.value) < t->operators.size());
  return *t->operators[static_cast<std::size_t>(id.value)];
}

bool DataflowGraph::Contains(OperatorId id) const {
  return id.valid() &&
         static_cast<std::size_t>(id.value) < topo()->operators.size();
}

const DataflowGraph::JobEntry& DataflowGraph::job_entry(JobId id) const {
  const Topology* t = topo();
  CAMEO_EXPECTS(id.valid() &&
                static_cast<std::size_t>(id.value) < t->jobs.size());
  return t->jobs[static_cast<std::size_t>(id.value)];
}

const JobSpec& DataflowGraph::job(JobId id) const {
  return job_entry(id).spec;
}

const StageInfo& DataflowGraph::stage(StageId id) const {
  const Topology* t = topo();
  CAMEO_EXPECTS(id.valid() &&
                static_cast<std::size_t>(id.value) < t->stages.size());
  return t->stages[static_cast<std::size_t>(id.value)];
}

std::size_t DataflowGraph::job_count() const { return topo()->jobs.size(); }

std::size_t DataflowGraph::operator_count() const {
  return topo()->operators.size();
}

std::vector<JobId> DataflowGraph::job_ids() const {
  std::vector<JobId> out;
  out.reserve(job_count());
  for (std::size_t i = 0; i < job_count(); ++i) {
    out.push_back(JobId{static_cast<std::int64_t>(i)});
  }
  return out;
}

const std::vector<StageId>& DataflowGraph::stages_of(JobId job) const {
  return job_entry(job).stages;
}

std::vector<OperatorId> DataflowGraph::OperatorsOf(JobId job) const {
  std::vector<OperatorId> out;
  // One snapshot for the whole walk, so a concurrent AddStage cannot mix
  // generations.
  const Topology* t = topo();
  CAMEO_EXPECTS(job.valid() &&
                static_cast<std::size_t>(job.value) < t->jobs.size());
  for (StageId sid : t->jobs[static_cast<std::size_t>(job.value)].stages) {
    const StageInfo& s = t->stages[static_cast<std::size_t>(sid.value)];
    out.insert(out.end(), s.operators.begin(), s.operators.end());
  }
  return out;
}

std::vector<DataflowGraph::Delivery> DataflowGraph::Route(OperatorId sender,
                                                          int port,
                                                          EventBatch batch) {
  std::vector<Delivery> out;
  Route(sender, port, std::move(batch), out);
  return out;
}

void DataflowGraph::Route(OperatorId sender, int port, EventBatch batch,
                          std::vector<Delivery>& out) {
  // One snapshot for sender, stage, and receivers: routing never sees a
  // half-published query.
  const Topology* t = topo();
  CAMEO_EXPECTS(sender.valid() &&
                static_cast<std::size_t>(sender.value) < t->operators.size());
  const Operator& op = *t->operators[static_cast<std::size_t>(sender.value)];
  const StageInfo& src =
      t->stages[static_cast<std::size_t>(op.stage().value)];
  CAMEO_EXPECTS(port >= 0 &&
                static_cast<std::size_t>(port) < src.downstream.size());
  const StageInfo& dst =
      t->stages[static_cast<std::size_t>(
          src.downstream[static_cast<std::size_t>(port)].value)];
  Partition part = src.partition[static_cast<std::size_t>(port)];

  // Every branch below picks replicas by position in `dst.operators` -- the
  // stage-global list, fixed at compile time. Shard placement renumbers
  // nothing here: a shard maps operator ids to local scheduler state, but
  // routing identity is the global id, so KeyMix(key) % replicas lands on
  // the same operator whether the graph runs on 1 shard or 8
  // (tests/shard_test.cpp Routing.* pins this).
  const auto replicas = static_cast<std::size_t>(dst.parallelism);

  switch (part) {
    case Partition::kOneToOne: {
      // Position of the sender within its stage.
      auto it = std::find(src.operators.begin(), src.operators.end(), sender);
      CAMEO_CHECK(it != src.operators.end());
      auto idx = static_cast<std::size_t>(it - src.operators.begin());
      out.push_back({dst.operators[idx], std::move(batch)});
      break;
    }
    case Partition::kShard: {
      auto it = std::find(src.operators.begin(), src.operators.end(), sender);
      CAMEO_CHECK(it != src.operators.end());
      auto idx = static_cast<std::size_t>(it - src.operators.begin());
      out.push_back({dst.operators[idx % replicas], std::move(batch)});
      break;
    }
    case Partition::kBroadcast: {
      for (std::size_t i = 0; i < replicas; ++i) {
        out.push_back({dst.operators[i], batch});
      }
      break;
    }
    case Partition::kRoundRobin: {
      // Cursor identity is the (source stage, output port) edge. The packed
      // key must be collision-free or two edges would share a cursor and
      // their interleaving would depend on dispatch order; 20 bits of port
      // is checked, stage ids are graph-local and small.
      CAMEO_EXPECTS(port < (1 << 20));
      const std::int64_t edge =
          (src.id.value << 20) | static_cast<std::int64_t>(port);
      out.push_back({dst.operators[NextReplica(edge, replicas)],
                     std::move(batch)});
      break;
    }
    case Partition::kKeyHash: {
      if (replicas == 1) {
        out.push_back({dst.operators[0], std::move(batch)});
        break;
      }
      if (!batch.columnar()) {
        // Keyless batch: its payload is progress plus an optional synthetic
        // tuple count. Synthetic tuples fold as key 0, so the count goes to
        // key 0's replica; progress goes to *every* replica -- a keyed
        // shard that receives nothing never advances its watermark, which
        // would stall every windowed consumer downstream of it.
        const std::size_t owner =
            static_cast<std::size_t>(KeyMix(0)) % replicas;
        for (std::size_t r = 0; r < replicas; ++r) {
          if (r == owner) {
            out.push_back({dst.operators[r], std::move(batch)});
          } else {
            out.push_back({dst.operators[r],
                           EventBatch::Synthetic(0, batch.progress)});
          }
        }
        break;
      }
      // One delivery per replica, in replica order, each starting as a
      // progress-only batch: a replica that receives no rows still gets the
      // progress (see the keyless branch above). Rows append in place.
      const int split_r = src.split[static_cast<std::size_t>(port)];
      const std::size_t first = out.size();
      for (std::size_t r = 0; r < replicas; ++r) {
        out.push_back(
            {dst.operators[r], EventBatch::Synthetic(0, batch.progress)});
      }
      auto split = [&](std::size_t r) -> EventBatch& {
        return out[first + r].batch;
      };
      if (split_r <= 1) {
        for (std::size_t i = 0; i < batch.keys.size(); ++i) {
          const auto h =
              static_cast<std::size_t>(KeyMix(batch.keys[i])) % replicas;
          split(h).Append(batch.keys[i], batch.values[i], batch.times[i]);
        }
      } else {
        // Two-phase hot-key splitting. A frequency pass over the batch finds
        // keys hot enough to matter: >= max(2, rows / (4 * replicas))
        // occurrences, a quarter of a replica's fair share. Under a Zipf
        // long tail the top handful of keys each sit below half a fair
        // share yet *together* saturate whichever shards they hash to, so
        // the threshold is deliberately eager -- splitting a lukewarm key
        // costs one extra merge row per window, while missing one strands
        // the shard. Each of a hot key's rows is salted with its
        // occurrence index mod split_r, spreading that key over up to
        // split_r replicas. Keys keep their original value -- only the
        // routing target changes -- so a downstream per-key merge stage
        // recombines the partial aggregates without any key rewriting.
        // Cold keys take the sub == 0 route, identical to the unsplit path.
        // All decisions are per-batch and data-deterministic: replays and
        // the row-wise reference fold see the same routing.
        SlateStore<std::uint32_t> freq;  // key -> occurrences in the batch
        for (std::int64_t key : batch.keys) freq.Probe(key) += 1;
        const std::uint32_t threshold = static_cast<std::uint32_t>(
            std::max<std::size_t>(2, batch.keys.size() / (4 * replicas)));
        for (std::size_t i = 0; i < batch.keys.size(); ++i) {
          const std::int64_t key = batch.keys[i];
          std::uint32_t& state = *freq.Find(key);
          std::size_t sub = 0;
          if (state >= threshold) {
            // Reuse the counter as the occurrence cursor: values stay
            // >= threshold, and successive rows get successive salts.
            sub = (state - threshold) % static_cast<std::uint32_t>(split_r);
            ++state;
          }
          std::uint64_t h = KeyMix(key);
          if (sub != 0) h = KeyMix(static_cast<std::int64_t>(h ^ sub));
          split(static_cast<std::size_t>(h) % replicas)
              .Append(key, batch.values[i], batch.times[i]);
        }
      }
      // The split copied every row out: park the input's columns for the
      // next Append to adopt.
      batch.Recycle();
      break;
    }
  }
}

std::size_t DataflowGraph::NextReplica(std::int64_t edge,
                                       std::size_t replicas) {
  // Workers route concurrently in the wall-clock runtime; the cursor map is
  // the only mutable routing state, so it gets its own small lock.
  std::lock_guard lock(s_->rr_mu);
  std::size_t& next = s_->rr_state[edge];
  std::size_t pick = next % replicas;
  next = (next + 1) % replicas;
  return pick;
}

std::vector<StageId> DataflowGraph::SinkStages(JobId job) const {
  std::vector<StageId> out;
  const Topology* t = topo();
  CAMEO_EXPECTS(job.valid() &&
                static_cast<std::size_t>(job.value) < t->jobs.size());
  for (StageId sid : t->jobs[static_cast<std::size_t>(job.value)].stages) {
    if (t->stages[static_cast<std::size_t>(sid.value)].downstream.empty()) {
      out.push_back(sid);
    }
  }
  return out;
}

}  // namespace cameo
