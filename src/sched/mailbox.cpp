#include "sched/mailbox.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {

namespace {

/// (PRI_local, message id) order: deterministic and strict (ids are unique),
/// FIFO tie-break.
bool LocalBefore(const Message& a, const Message& b) {
  if (a.pc.pri_local != b.pc.pri_local) return a.pc.pri_local < b.pc.pri_local;
  return a.id.value < b.id.value;
}

/// std::push_heap builds a max-heap, so the min-heap comparator is inverted.
struct LocalOrderGreater {
  bool operator()(const Message& a, const Message& b) const {
    return LocalBefore(b, a);
  }
};

}  // namespace

Mailbox::~Mailbox() {
  Node* n = inbox_.load(std::memory_order_acquire);
  while (n != nullptr) {
    Node* next = n->next;
    delete n;
    n = next;
  }
}

bool Mailbox::Push(Message m) {
  // The retiring flag is checked before the size increment, so once a
  // retirer has observed the flag *and* a size, only pushes it will see (or
  // that the final kRetired re-check catches) can be in flight.
  if (retiring_.load(std::memory_order_seq_cst)) return false;
  // Size first: the release protocol's post-kIdle re-check must observe this
  // increment whenever our later state read sees kActive (SC total order).
  size_.fetch_add(1, std::memory_order_seq_cst);
  std::unique_ptr<Node> node = NodeStash::Global().Take().value_or(nullptr);
  if (node == nullptr) node = std::make_unique<Node>();
  node->msg = std::move(m);
  Node* n = node.release();
  Node* head = inbox_.load(std::memory_order_relaxed);
  do {
    n->next = head;
  } while (!inbox_.compare_exchange_weak(head, n, std::memory_order_release,
                                         std::memory_order_relaxed));
  return true;
}

void Mailbox::DrainInbox() {
  Node* n = inbox_.exchange(nullptr, std::memory_order_acquire);
  // The grabbed chain is LIFO; reverse to recover push order (pushes are
  // linearized by the CAS, so this is global arrival order).
  Node* fifo = nullptr;
  while (n != nullptr) {
    Node* next = n->next;
    n->next = fifo;
    fifo = n;
    n = next;
  }
  while (fifo != nullptr) {
    // An arrival that sorts after the run's tail extends the sorted run (a
    // FIFO mailbox treats every arrival so); only stragglers pay a heap push.
    if (order_ == MailboxOrder::kFifo || buffer_.empty() ||
        !LocalBefore(fifo->msg, buffer_.back())) {
      buffer_.push_back(std::move(fifo->msg));
    } else {
      heap_.push_back(std::move(fifo->msg));
      std::push_heap(heap_.begin(), heap_.end(), LocalOrderGreater{});
    }
    Node* next = fifo->next;
    NodeStash::Global().Put(std::unique_ptr<Node>(fifo));
    fifo = next;
  }
}

bool Mailbox::RunFirst() const {
  return heap_.empty() ||
         (!buffer_.empty() && LocalBefore(buffer_.front(), heap_.front()));
}

const Message& Mailbox::PeekBest() const {
  CAMEO_EXPECTS(!buffer_empty());
  return RunFirst() ? buffer_.front() : heap_.front();
}

Message Mailbox::PopBest() {
  CAMEO_EXPECTS(!buffer_empty());
  Message out;
  if (RunFirst()) {
    out = std::move(buffer_.front());
    buffer_.pop_front();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), LocalOrderGreater{});
    out = std::move(heap_.back());
    heap_.pop_back();
  }
  size_.fetch_sub(1, std::memory_order_seq_cst);
  return out;
}

bool Mailbox::TryMarkQueued(std::uint64_t& epoch_out) {
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  while (StateOf(w) == State::kIdle) {
    std::uint64_t next = Pack(State::kQueued, EpochOf(w) + 1);
    if (word_.compare_exchange_weak(w, next, std::memory_order_seq_cst)) {
      epoch_out = EpochOf(next);
      return true;
    }
  }
  return false;
}

bool Mailbox::TryClaimQueued(std::uint64_t epoch) {
  std::uint64_t expected = Pack(State::kQueued, epoch);
  return word_.compare_exchange_strong(expected, Pack(State::kActive, epoch),
                                       std::memory_order_seq_cst);
}

bool Mailbox::TryClaim() {
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  while (StateOf(w) == State::kIdle || StateOf(w) == State::kQueued) {
    if (word_.compare_exchange_weak(w, Pack(State::kActive, EpochOf(w)),
                                    std::memory_order_seq_cst)) {
      return true;
    }
  }
  return false;
}

bool Mailbox::TryReclaim() {
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  while (StateOf(w) == State::kIdle) {
    if (word_.compare_exchange_weak(w, Pack(State::kActive, EpochOf(w)),
                                    std::memory_order_seq_cst)) {
      return true;
    }
  }
  return false;
}

std::uint64_t Mailbox::ReleaseToQueued() {
  // Only the owner transitions out of kActive, so a plain bump-and-store is
  // race-free; the new epoch opens the next queued session.
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  CAMEO_EXPECTS(StateOf(w) == State::kActive);
  std::uint64_t next = Pack(State::kQueued, EpochOf(w) + 1);
  word_.store(next, std::memory_order_seq_cst);
  return EpochOf(next);
}

void Mailbox::ReleaseToIdle() {
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  CAMEO_EXPECTS(StateOf(w) == State::kActive);
  word_.store(Pack(State::kIdle, EpochOf(w)), std::memory_order_seq_cst);
}

void Mailbox::ReleaseToRetired() {
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  CAMEO_EXPECTS(StateOf(w) == State::kActive);
  CAMEO_EXPECTS(retiring());
  // The epoch bump invalidates every outstanding queued-session entry even
  // if the mailbox is transiently reclaimed for a purge.
  word_.store(Pack(State::kRetired, EpochOf(w) + 1), std::memory_order_seq_cst);
}

bool Mailbox::TryReclaimRetired() {
  std::uint64_t w = word_.load(std::memory_order_seq_cst);
  while (StateOf(w) == State::kRetired) {
    if (word_.compare_exchange_weak(w, Pack(State::kActive, EpochOf(w)),
                                    std::memory_order_seq_cst)) {
      return true;
    }
  }
  return false;
}

std::int64_t Mailbox::PurgeBacklog() {
  CAMEO_EXPECTS(state() == State::kActive);
  DrainInbox();
  auto dropped = static_cast<std::int64_t>(buffered());
  buffer_.clear();
  heap_.clear();
  if (dropped > 0) size_.fetch_sub(dropped, std::memory_order_seq_cst);
  return dropped;
}

bool Mailbox::TryLowerRegisteredPri(Priority p) {
  Priority cur = registered_pri_.load(std::memory_order_relaxed);
  while (p < cur) {
    if (registered_pri_.compare_exchange_weak(cur, p,
                                              std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace cameo
