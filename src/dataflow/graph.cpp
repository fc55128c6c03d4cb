#include "dataflow/graph.h"

#include <algorithm>

#include "state/slate_store.h"

namespace cameo {

namespace {

/// The entry for `id`, which must already be published.
template <typename Id, typename T>
T& At(const IdTable<Id, T>& table, Id id) {
  T* v = table.Find(id);
  CAMEO_EXPECTS(v != nullptr);
  return *v;
}

}  // namespace

DataflowGraph::DataflowGraph() : s_(std::make_unique<State>()) {}

JobId DataflowGraph::AddJob(JobSpec spec) {
  CAMEO_EXPECTS(spec.latency_constraint >= 0);
  std::lock_guard lock(s_->mutate_mu);
  const JobId id{static_cast<std::int64_t>(s_->jobs.size())};
  s_->jobs.GetOrCreate(id, [&] {
    auto entry = std::make_unique<JobEntry>();
    entry->spec = std::move(spec);
    return entry;
  });
  return id;
}

StageId DataflowGraph::AddStage(JobId job, const std::string& name,
                                int parallelism,
                                const OperatorFactory& factory) {
  CAMEO_EXPECTS(parallelism >= 1);
  std::lock_guard lock(s_->mutate_mu);
  JobEntry& entry = At(s_->jobs, job);
  const StageId sid{static_cast<std::int64_t>(s_->stages.size())};
  auto info = std::make_unique<StageInfo>();
  info->id = sid;
  info->job = job;
  info->name = name;
  info->parallelism = parallelism;
  for (int i = 0; i < parallelism; ++i) {
    auto op = factory(i);
    CAMEO_CHECK(op != nullptr);
    const OperatorId oid{static_cast<std::int64_t>(s_->operators.size())};
    op->Bind(oid, sid, job);
    info->operators.push_back(oid);
    s_->operators.GetOrCreate(oid, [&] { return std::move(op); });
  }
  s_->stages.GetOrCreate(sid, [&] { return std::move(info); });
  entry.stages.push_back(sid);
  return sid;
}

int DataflowGraph::Connect(StageId from, StageId to, Partition partition,
                           int split) {
  CAMEO_EXPECTS(split >= 1);
  CAMEO_EXPECTS(split == 1 || partition == Partition::kKeyHash);
  std::lock_guard lock(s_->mutate_mu);
  StageInfo& src = At(s_->stages, from);
  StageInfo& dst = At(s_->stages, to);
  CAMEO_EXPECTS(src.job == dst.job);
  if (partition == Partition::kOneToOne) {
    CAMEO_EXPECTS(src.parallelism == dst.parallelism);
  }
  src.downstream.push_back(to);
  src.partition.push_back(partition);
  src.split.push_back(split);
  dst.upstream.push_back(from);
  return static_cast<int>(src.downstream.size()) - 1;
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
  const bool was_live = At(s_->jobs, job).live.exchange(false);
  CAMEO_EXPECTS(was_live);
  return ops;
}

bool DataflowGraph::query_live(JobId job) const {
  return job_entry(job).live.load(std::memory_order_acquire);
}

std::size_t DataflowGraph::live_job_count() const {
  std::size_t live = 0;
  for (JobId job : job_ids()) live += query_live(job) ? 1 : 0;
  return live;
}

Operator& DataflowGraph::Get(OperatorId id) {
  return At(s_->operators, id);
}

const Operator& DataflowGraph::Get(OperatorId id) const {
  return At(s_->operators, id);
}

bool DataflowGraph::Contains(OperatorId id) const {
  return s_->operators.Find(id) != nullptr;
}

const DataflowGraph::JobEntry& DataflowGraph::job_entry(JobId id) const {
  return At(s_->jobs, id);
}

const JobSpec& DataflowGraph::job(JobId id) const {
  return job_entry(id).spec;
}

const StageInfo& DataflowGraph::stage(StageId id) const {
  return At(s_->stages, id);
}

std::size_t DataflowGraph::job_count() const { return s_->jobs.size(); }

std::size_t DataflowGraph::operator_count() const {
  return s_->operators.size();
}

std::vector<JobId> DataflowGraph::job_ids() const {
  const std::size_t n = job_count();
  std::vector<JobId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(JobId{static_cast<std::int64_t>(i)});
  }
  return out;
}

const std::vector<StageId>& DataflowGraph::stages_of(JobId job) const {
  return job_entry(job).stages;
}

std::vector<OperatorId> DataflowGraph::OperatorsOf(JobId job) const {
  std::vector<OperatorId> out;
  for (StageId sid : stages_of(job)) {
    const StageInfo& s = stage(sid);
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
  const StageInfo& src = stage(Get(sender).stage());
  CAMEO_EXPECTS(port >= 0 &&
                static_cast<std::size_t>(port) < src.downstream.size());
  const StageInfo& dst = stage(src.downstream[static_cast<std::size_t>(port)]);
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
        // The frequency table is per-thread scratch, cleared per batch, so a
        // warm router allocates nothing.
        thread_local SlateStore<std::uint32_t> freq;  // key -> occurrences
        freq.Clear();
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
  for (StageId sid : stages_of(job)) {
    if (stage(sid).downstream.empty()) out.push_back(sid);
  }
  return out;
}

}  // namespace cameo
