// Minimal task-parallel helpers (Core Guidelines CP.4: think in terms of
// tasks, not threads).
//
// The library parallelises three embarrassingly parallel stages: synthetic
// trace generation (per-process streams), parameter sweeps in the benches,
// and sharded mining. All of them run on `WorkerPool`: the sharded apply
// keeps one pool per miner, and `parallel_for` builds one per call. The
// workers are plain std::thread + mutex/condvar, so ThreadSanitizer
// instruments every parallel loop the library runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace farmer {

/// Number of worker threads the helpers will use.
[[nodiscard]] inline unsigned hardware_parallelism() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// A persistent worker pool for repeated small fan-outs (the sharded apply
/// path runs one per ingested batch, where parallel_for's per-call thread
/// spawn would dominate the work). `run(n, body)` executes body(i) for every
/// i in [0, n) and returns only after the last item finished; the calling
/// thread participates, so a pool built with `threads` executes with exactly
/// `threads` lanes. Work is claimed item-by-item from a shared atomic
/// counter (dynamic scheduling — shard slices are skewed by routing).
///
/// Thread-safety: run() is *not* reentrant — one job at a time, issued from
/// one thread (the caller of ShardedFarmer::observe_batch or parallel_for).
class WorkerPool {
 public:
  /// Spawns `threads - 1` helper threads (the caller is the last lane).
  /// `threads <= 1` spawns nothing and run() degrades to the serial loop.
  explicit WorkerPool(std::size_t threads) {
    const std::size_t helpers = threads > 1 ? threads - 1 : 0;
    threads_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i)
      threads_.emplace_back([this] { worker_loop(); });
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Lanes this pool executes with (helpers + the calling thread).
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return threads_.size() + 1;
  }

  /// Runs body(i) for i in [0, n); returns after every item completed.
  /// `body` must be safe to run concurrently for distinct i and must not
  /// throw (an escaping exception would strand the completion count).
  template <typename Body>
  void run(std::size_t n, Body&& body) {
    if (n == 0) return;
    if (threads_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    std::function<void(std::size_t)> fn =
        [&body](std::size_t i) { body(i); };
    {
      std::lock_guard<std::mutex> lk(mu_);
      body_ = &fn;
      n_ = n;
      completed_ = 0;
      next_.store(0, std::memory_order_relaxed);
      ++generation_;
    }
    cv_work_.notify_all();
    const std::size_t did = participate(fn, n);
    std::unique_lock<std::mutex> lk(mu_);
    completed_ += did;
    // Every item done is not enough: a helper that picked up this job but
    // has not claimed yet would otherwise outlive it and claim the next
    // job's items off the reset counter with this job's `fn` and `n`.
    cv_done_.wait(lk, [&] { return completed_ == n_ && active_ == 0; });
    body_ = nullptr;
  }

 private:
  /// Claims items off the shared counter until the job is exhausted.
  std::size_t participate(const std::function<void(std::size_t)>& fn,
                          std::size_t n) {
    std::size_t did = 0;
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < n; i = next_.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
      ++did;
    }
    return did;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      const std::function<void(std::size_t)>* fn = body_;
      const std::size_t n = n_;
      // A slow wake can miss a job entirely: the other lanes drained it and
      // run() already retired the body. Nothing left to claim.
      if (fn == nullptr) continue;
      // Checked in under mu_ while the job is live: run() cannot return
      // (and retire `fn`, or reset next_ for another job) until this lane
      // checks out below, so `fn` and `n` stay this job's throughout.
      ++active_;
      lk.unlock();
      const std::size_t did = participate(*fn, n);
      lk.lock();
      completed_ += did;
      if (--active_ == 0 && completed_ == n_) cv_done_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  // Job slot, guarded by mu_ except for the lock-free item counter.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t completed_ = 0;
  std::size_t active_ = 0;  ///< helpers inside participate()
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};
};

/// Runs body(i) for i in [0, n) on a pool of up to hardware_parallelism()
/// lanes, one of them the calling thread; items are claimed one at a time,
/// so unequal items balance across lanes. `body` must be safe to run
/// concurrently for distinct i and must not throw (WorkerPool::run).
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  WorkerPool(std::min<std::size_t>(hardware_parallelism(), n)).run(n, body);
}

}  // namespace farmer
