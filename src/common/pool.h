// The recycling primitive for the steady-state message path: a pool of
// *live* reusable objects, for types whose value carries the thing worth
// recycling -- vectors with grown capacity (the EventBatch column buffers,
// wire frames) or a heap node parked behind a std::unique_ptr (the mailbox
// inbox nodes). Parked objects stay fully constructed; Take hands one back
// as-is.
//
// Shape: a thread-local cache with a mutex-guarded global spillover, so
// objects made on one thread and retired on another keep both threads'
// caches fed. Once warm, Put/Take touch only the calling thread's cache; the
// global lock is taken once per kTransfer objects moved. Each cache flushes
// into the spillover at thread exit (elastic workers come and go), and the
// global stash is a leaked singleton (reachable from a static, so
// LeakSanitizer stays quiet), which makes teardown order irrelevant.
//
// A caller Puts an object only once it owns it exclusively; see
// sched/mailbox.h for why that holds for nodes detached from a Treiber
// inbox.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace cameo {

template <typename T>
class RecycleStash {
 public:
  static constexpr std::size_t kTlsMax = 64;
  static constexpr std::size_t kTransfer = 32;

  static RecycleStash& Global() {
    static RecycleStash* stash = new RecycleStash();
    return *stash;
  }

  RecycleStash(const RecycleStash&) = delete;
  RecycleStash& operator=(const RecycleStash&) = delete;

  /// Parks a reusable object in the calling thread's cache.
  void Put(T obj) {
    Tls& tls = ThreadCache();
    if (tls.items.size() >= kTlsMax) Spill(tls);
    tls.items.push_back(std::move(obj));
  }

  /// Retrieves a parked object, refilling from the global spillover when the
  /// thread cache is dry. nullopt when the stash is cold.
  std::optional<T> Take() {
    Tls& tls = ThreadCache();
    if (tls.items.empty()) Refill(tls);
    if (tls.items.empty()) return std::nullopt;
    T obj = std::move(tls.items.back());
    tls.items.pop_back();
    return obj;
  }

 private:
  // Singleton-only: the thread-local cache is keyed per *type*, so a second
  // instance would interleave its objects with Global()'s cache and leave
  // them parked in a dead owner. Global() is the only constructor caller.
  RecycleStash() = default;

  struct Tls {
    std::vector<T> items;
    RecycleStash* owner = nullptr;

    ~Tls() {
      if (owner == nullptr || items.empty()) return;
      std::lock_guard lock(owner->mu_);
      for (T& obj : items) owner->global_.push_back(std::move(obj));
    }
  };

  Tls& ThreadCache() {
    static thread_local Tls tls;
    tls.owner = this;
    return tls;
  }

  void Spill(Tls& tls) {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < kTransfer; ++i) {
      global_.push_back(std::move(tls.items.back()));
      tls.items.pop_back();
    }
  }

  void Refill(Tls& tls) {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < kTransfer && !global_.empty(); ++i) {
      tls.items.push_back(std::move(global_.back()));
      global_.pop_back();
    }
  }

  std::mutex mu_;
  std::vector<T> global_;
};

}  // namespace cameo
