// A single-slot atomically swappable shared_ptr — the RCU publication cell.
//
// The concurrent miner publishes immutable state by atomically swapping a
// shared_ptr: the writer installs a new snapshot (release), readers load
// the current one (acquire) and keep it alive by reference count. C++20's
// std::atomic<std::shared_ptr<T>> is exactly this primitive, and the
// default implementation below is a thin alias for it.
//
// ThreadSanitizer builds substitute a mutex-guarded cell with identical
// acquire/release semantics. This is not paranoia: libstdc++'s _Sp_atomic
// protects its raw pointer with a spin bit-lock whose *reader-side* unlock
// is deliberately memory_order_relaxed (the reader wrote nothing), so the
// mutual exclusion is real but the formal happens-before edge TSan looks
// for does not exist — every load/store pair reports a false-positive race
// on the internal pointer (see GCC PR 113073). Swapping in a primitive
// TSan fully understands keeps the sanitizer tier able to validate all the
// code *around* the cell (queues, drain, snapshot immutability) instead of
// drowning in one known-benign report.
#pragma once

#include <memory>

#if defined(__SANITIZE_THREAD__)
#define FARMER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FARMER_TSAN 1
#endif
#endif

#ifdef FARMER_TSAN
#include <mutex>
#else
#include <atomic>
#endif

namespace farmer {

#ifdef FARMER_TSAN

/// Mutex-backed fallback for sanitizer builds; same observable semantics
/// as the atomic specialization (load-acquire / store-release on one slot).
template <typename T>
class AtomicSharedPtr {
 public:
  AtomicSharedPtr() = default;

  [[nodiscard]] std::shared_ptr<T> load() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ptr_;
  }
  void store(std::shared_ptr<T> p) {
    std::lock_guard<std::mutex> lk(mu_);
    ptr_ = std::move(p);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> ptr_;
};

#else

/// One atomic shared_ptr slot: lock-free for readers in the sense that a
/// load is a constant-time refcount acquisition that never waits on the
/// writer's snapshot construction (the swap itself is a pointer-sized
/// critical section inside libstdc++).
template <typename T>
class AtomicSharedPtr {
 public:
  AtomicSharedPtr() = default;

  [[nodiscard]] std::shared_ptr<T> load() const {
    return slot_.load(std::memory_order_acquire);
  }
  void store(std::shared_ptr<T> p) {
    slot_.store(std::move(p), std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<T>> slot_;
};

#endif  // FARMER_TSAN

}  // namespace farmer
