#include "shard/inproc_transport.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/pool.h"

namespace cameo::shard {

/// One shipped frame, recycled through a RecycleStash. The Treiber inbox
/// relies on the mailbox's reclamation argument (sched/mailbox.h, "Inbox
/// reclamation"): producers only push, the consumer detaches the whole chain
/// with one exchange and is the sole owner after.
struct InprocTransport::FrameNode {
  WireFrame frame;
  std::uint64_t seq = 0;
  FrameNode* next = nullptr;
};

struct InprocTransport::Channel {
  // ---- producer side ----
  std::atomic<FrameNode*> inbox{nullptr};

  /// Serializes the delay model and sequence assignment (a handful of
  /// arithmetic ops; producers contend here only with senders on the *same*
  /// directed edge).
  std::mutex send_mu;
  Rng rng{1};            // guarded by send_mu
  SimTime last_deliver = kTimeMin;  // guarded by send_mu
  std::uint64_t next_seq = 0;       // guarded by send_mu

  // ---- consumer side (single consumer per destination shard) ----
  /// Drained-but-not-yet-delivered nodes: a min-heap on seq, so the
  /// next-in-order frame is at the front. A heap keeps each drain and pop
  /// O(log n) when a slow consumer lets thousands of frames pile up.
  std::vector<FrameNode*> pending;
  std::uint64_t next_deliver_seq = 0;

  // ---- stats ----
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> bytes{0};
};

InprocTransport::InprocTransport(DelayModel delay, std::uint64_t seed)
    : delay_(delay), seed_(seed) {}

InprocTransport::~InprocTransport() {
  for (std::unique_ptr<Channel>& ch : channels_) {
    if (ch == nullptr) continue;
    FrameNode* n = ch->inbox.exchange(nullptr, std::memory_order_acquire);
    while (n != nullptr) {
      FrameNode* next = n->next;
      delete n;
      n = next;
    }
    for (FrameNode* p : ch->pending) delete p;
  }
}

void InprocTransport::Start(int num_shards) {
  CAMEO_EXPECTS(num_shards >= 1);
  CAMEO_EXPECTS(channels_.empty());
  num_shards_ = num_shards;
  channels_.resize(static_cast<std::size_t>(num_shards) * num_shards);
  for (int from = 0; from < num_shards; ++from) {
    for (int to = 0; to < num_shards; ++to) {
      auto ch = std::make_unique<Channel>();
      // Per-channel seed: every edge's delay sequence is a pure function of
      // (run seed, from, to), independent of traffic on other edges.
      ch->rng = Rng(seed_ * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(from) * 0x10001ULL +
                    static_cast<std::uint64_t>(to));
      channels_[static_cast<std::size_t>(from) * num_shards + to] =
          std::move(ch);
    }
  }
}

InprocTransport::Channel& InprocTransport::ChannelAt(int from, int to) {
  CAMEO_EXPECTS(from >= 0 && from < num_shards_ && to >= 0 &&
                to < num_shards_);
  return *channels_[static_cast<std::size_t>(from) * num_shards_ + to];
}

SimTime InprocTransport::Send(int from, int to, SimTime now, WireFrame frame) {
  Channel& ch = ChannelAt(from, to);
  std::unique_ptr<FrameNode> owned =
      RecycleStash<std::unique_ptr<FrameNode>>::Global().Take().value_or(
          nullptr);
  if (owned == nullptr) owned = std::make_unique<FrameNode>();
  FrameNode* node = owned.release();
  node->frame = std::move(frame);
  {
    std::lock_guard lock(ch.send_mu);
    Duration d = delay_.base;
    if (delay_.jitter > 0) {
      d += static_cast<Duration>(static_cast<double>(delay_.jitter) *
                                 ch.rng.Uniform01());
    }
    // Monotone clamp: jitter never reorders a channel (FIFO links, like TCP).
    ch.last_deliver = std::max(ch.last_deliver, now + d);
    node->frame.deliver_at = ch.last_deliver;
    node->seq = ch.next_seq++;
  }
  ch.bytes.fetch_add(node->frame.bytes.size(), std::memory_order_relaxed);
  ch.sent.fetch_add(1, std::memory_order_relaxed);
  const SimTime deliver_at = node->frame.deliver_at;
  // Treiber push; sched/mailbox.h ("Inbox reclamation") says why ABA is
  // benign.
  FrameNode* head = ch.inbox.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!ch.inbox.compare_exchange_weak(head, node,
                                           std::memory_order_release,
                                           std::memory_order_relaxed));
  return deliver_at;
}

bool InprocTransport::Receive(int to, SimTime now, WireFrame& out,
                              int& from_out) {
  // Fixed source order keeps multi-channel interleaving deterministic for
  // the sim; each call pops at most one frame, so no source can starve
  // another within an event.
  for (int from = 0; from < num_shards_; ++from) {
    Channel& ch = ChannelAt(from, to);
    FrameNode* drained =
        ch.inbox.exchange(nullptr, std::memory_order_acquire);
    // Sequence assignment and the push race under concurrency, so drain
    // order is not seq order; seq, assigned under send_mu, is
    // authoritative.
    const auto later = [](const FrameNode* a, const FrameNode* b) {
      return a->seq > b->seq;
    };
    for (FrameNode* n = drained; n != nullptr;) {
      FrameNode* next = n->next;
      ch.pending.push_back(n);
      std::push_heap(ch.pending.begin(), ch.pending.end(), later);
      n = next;
    }
    if (ch.pending.empty()) continue;
    FrameNode* head = ch.pending.front();
    // Deliver strictly in seq order: a gap means a sender assigned a seq
    // under send_mu but has not completed its push yet -- its frame would
    // sort *before* head, so head must wait for it.
    if (head->seq != ch.next_deliver_seq) continue;
    if (head->frame.deliver_at > now) continue;  // not due yet
    std::pop_heap(ch.pending.begin(), ch.pending.end(), later);
    ch.pending.pop_back();
    ++ch.next_deliver_seq;
    out = std::move(head->frame);
    RecycleStash<std::unique_ptr<FrameNode>>::Global().Put(
        std::unique_ptr<FrameNode>(head));
    ch.received.fetch_add(1, std::memory_order_relaxed);
    from_out = from;
    return true;
  }
  return false;
}

TransportStats InprocTransport::stats() const {
  TransportStats s;
  for (const std::unique_ptr<Channel>& ch : channels_) {
    if (ch == nullptr) continue;
    s.frames_sent += ch->sent.load(std::memory_order_relaxed);
    s.frames_received += ch->received.load(std::memory_order_relaxed);
    s.bytes_sent += ch->bytes.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace cameo::shard
