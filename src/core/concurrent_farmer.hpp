// Asynchronous ingest: the "concurrent" mining backend.
//
// A peta-scale metadata cluster cannot stop the request stream to mine it.
// `ConcurrentFarmer` decouples the two halves of that problem:
//
//   producers ──push──▶ per-slot MpscQueues ──drain thread──▶ ShardedFarmer
//                                                 │ COW shard snapshot export
//   readers ◀── RCU shard-table (atomic shared_ptr swap) ◀── publish
//                                                 (coalesced across rounds)
//
// * Ingest is lock-free for callers: `observe()`/`observe_batch()` route to
//   one of `ingest_queues` MPSC queues (slot = hash of the calling thread)
//   with a single atomic exchange, so N producer threads never contend on a
//   mutex and never wait for queries. Per-thread FIFO order is preserved;
//   cross-thread interleaving is whatever the drain observes — the standard
//   relaxed guarantee of a concurrent ingest path.
// * The live ShardedFarmer is owned *exclusively* by the drain thread —
//   no query ever touches it. After applying batches the drain exports an
//   immutable *copy-on-write* snapshot of every shard touched since the
//   last publication (Farmer's CowShare constructor: per-file blocks are
//   structurally shared; only files the round dirtied were cloned, by the
//   live side, at write time) and publishes a new `ShardTable` — the
//   shared_ptr array of current shard snapshots plus per-shard publish
//   epochs — with one atomic shared_ptr swap. This is RCU: readers load
//   the table pointer (acquire), query immutable state, and drop their
//   reference; reclamation is shared_ptr reference counting. Readers never
//   take a lock and never retry; writers never wait for readers. Publish
//   cost is O(dirty files) + O(pages), not O(shard state).
// * Publication is *coalesced* under load: with
//   `publish_interval_records` > 1 the drain batches apply rounds and swaps
//   a new table only when that many records have been applied since the
//   last swap or the `publish_max_delay` staleness deadline expires —
//   including while idle, where the timed idle wait doubles as the
//   deadline poll, so applied state is never stale past the deadline.
//   Between publishes queries simply read the previous table. flush() is
//   unaffected: a waiting flush overrides the interval and forces the
//   publish as soon as the queues run dry, so it still returns only after
//   a publish covering every accepted record.
// * Queries merge the per-shard snapshot lists with the *same* static
//   helpers ShardedFarmer uses live (merged_correlators & friends), which
//   is what keeps flush()-then-query byte-identical to the "sharded"
//   backend.
//
// `flush()` is the barrier between the two worlds: it returns once every
// record accepted before the call has been applied *and published*, which
// is what makes the backend differentially testable — a single-threaded
// replay followed by flush() is byte-identical to the synchronous "sharded"
// backend, because each queue preserves FIFO order and shard state only
// depends on the per-shard record order (coalescing changes when tables
// appear, never what the final table contains).
//
// Memory is bounded by `max_pending`: producers soft-block (yield-spin) once
// that many records are queued but not yet applied, so a stalled drain
// cannot balloon the process. A single batch larger than the bound is
// admitted once the drain has caught up (refusing it could never unblock),
// so the effective bound is max(max_pending, largest single batch). The
// published snapshots structurally share all non-dirty per-file state with
// the drain's live mirror, so steady-state memory is roughly one live state
// plus the dirty deltas readers still hold (see footprint_bytes()).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "api/correlation_miner.hpp"
#include "common/atomic_shared_ptr.hpp"
#include "common/mpsc_queue.hpp"
#include "core/sharded_farmer.hpp"
#include "persist/persister.hpp"

namespace farmer {

/// A query result plus the epoch of the published state it was cut from.
struct EpochSnapshot {
  CorrelatorView view;
  std::uint64_t epoch = 0;
};

class ConcurrentFarmer final : public CorrelationMiner {
 public:
  /// Producers blocked beyond this many queued-but-unapplied records.
  static constexpr std::size_t kDefaultMaxPending = std::size_t{1} << 20;
  /// Staleness deadline for coalesced publishes when none is configured.
  static constexpr std::chrono::milliseconds kDefaultPublishMaxDelay{4};

  /// `persister`, when non-null, makes the backend durable: construction
  /// recovers the persist directory into the live miner before the epoch-0
  /// publish, every drained batch is WAL-appended (on the drain thread,
  /// before it is applied, so WAL order == apply order), and checkpoints
  /// are serialized off published COW snapshots on a background worker —
  /// ingest never stops for a checkpoint. Records still queued but not yet
  /// drained at a crash are lost; the durable prefix is always a prefix of
  /// the applied history.
  ///
  /// `apply_threads` sizes the inner ShardedFarmer's parallel apply: each
  /// batch the drain collects is partitioned into shard-disjoint slices and
  /// applied on that many lanes (0 = auto, 1 = serial). The drain thread is
  /// one of the lanes, so the single extra thread this backend used to pay
  /// per record stream becomes apply_threads-wide without changing what the
  /// published tables contain (shard slices preserve per-shard order).
  ConcurrentFarmer(FarmerConfig cfg,
                   std::shared_ptr<const TraceDictionary> dict,
                   std::size_t shards, std::size_t ingest_queues,
                   std::size_t max_pending = kDefaultMaxPending,
                   std::size_t publish_interval_records = 0,
                   std::size_t publish_max_delay_ms = 0,
                   std::unique_ptr<persist::Persister> persister = nullptr,
                   std::size_t apply_threads = 0);
  ~ConcurrentFarmer() override;

  ConcurrentFarmer(const ConcurrentFarmer&) = delete;
  ConcurrentFarmer& operator=(const ConcurrentFarmer&) = delete;

  /// Lock-free enqueue of one record (one MPSC push); applied
  /// asynchronously. Pays a one-element batch + queue-node allocation per
  /// record — throughput-sensitive producers should use observe_batch();
  /// coalescing in a thread-local buffer here would break the flush()
  /// contract (records parked in another thread's buffer would be accepted
  /// yet invisible to the barrier).
  void observe(const TraceRecord& rec) override;

  /// Lock-free enqueue of a batch copy; the batch is applied as one unit so
  /// its internal order survives into the shards.
  void observe_batch(std::span<const TraceRecord> records) override;

  /// Blocks until everything accepted before the call has been applied and
  /// published; afterwards every query answers from state that includes it.
  /// Coalescing never weakens this barrier: while a flush() waits, the
  /// drain publishes after every apply round and again the moment the
  /// queues run dry, interval or not. With persistence enabled, a
  /// background checkpoint that failed since the last flush() is rethrown
  /// here, once, as the original exception (after the barrier completed);
  /// the previous checkpoint and the WAL still cover every record.
  void flush() override;

  /// Owning snapshot of `f`'s merged Correlator List at the current epoch.
  /// Lock-free: loads the published shard table and merges its shard lists.
  /// The view stays valid and immutable for as long as the caller holds it,
  /// across any amount of further ingest.
  [[nodiscard]] CorrelatorView snapshot(FileId f) const override;

  /// The sharded in-place scan over one table load, so a caller that asks
  /// this first reaches the merge only when some shard lists a passing
  /// entry.
  [[nodiscard]] bool any_listed(
      FileId f, FunctionRef<bool(FileId)> test) const override;

  /// snapshot() plus the epoch stamp, for readers that track progression.
  [[nodiscard]] EpochSnapshot epoch_snapshot(FileId f) const;

  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override;
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override;
  [[nodiscard]] std::uint64_t access_count(FileId f) const override;
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override;
  /// The sharded fused walk over one table load: every field of the call
  /// comes from the same published epoch.
  void candidate_evidence(FileId a, std::span<const Correlator> candidates,
                          std::span<PairEvidence> out) const override;

  /// Published sharded stats plus `epoch`, `pending`, per-shard
  /// `shard_epochs` and the COW publish counters (`publishes`,
  /// `files_cloned`, `bytes_shared`). `requests` counts *published*
  /// records; enqueued-but-unpublished records are `pending`.
  [[nodiscard]] MinerStats stats() const override;
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;
  [[nodiscard]] const char* name() const noexcept override {
    return "concurrent";
  }

  /// Checkpoints the *published* state into `dir` (flush() first, so the
  /// checkpoint covers every record accepted before the call).
  void save(const std::string& dir) override;

  /// Loads a persist directory into a freshly constructed miner (throws
  /// std::logic_error after any ingest). Pauses the drain thread for the
  /// model surgery, republishes, and — when this backend has its own
  /// persister — re-bases the WAL on the loaded sequence and commits a
  /// covering checkpoint.
  void load(const std::string& dir) override;

  /// Number of publish rounds so far (monotone).
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return table_.load()->epoch;
  }
  [[nodiscard]] std::size_t ingest_queue_count() const noexcept {
    return queues_.size();
  }

 private:
  using Batch = std::vector<TraceRecord>;

  /// The RCU-published immutable view of mined state: one snapshot per
  /// shard plus that shard's publish count. A table is never mutated after
  /// the atomic swap; shard snapshots are shared between consecutive tables
  /// when the shard was not touched since the previous publish — and the
  /// snapshots themselves structurally share every untouched per-file block
  /// with the live shard (COW export).
  struct ShardTable {
    std::vector<std::shared_ptr<const Farmer>> shards;
    std::vector<std::uint64_t> shard_epochs;
    std::uint64_t epoch = 0;
    MinerStats stats;  ///< inner sharded counters as of this publish
  };

  [[nodiscard]] std::size_t slot_of_this_thread() const noexcept;
  void enqueue(Batch batch);
  void drain_loop();
  /// Pops every visible batch from every queue into one apply buffer,
  /// preserving per-queue order. Returns the number of records collected.
  std::size_t collect(Batch& into);
  void apply(const Batch& batch);
  /// True when the coalescing policy says the applied-but-unpublished
  /// backlog must be published now (interval reached or deadline expired).
  [[nodiscard]] bool publish_due() const;
  /// Publishes the backlog: exports COW snapshots of every shard touched
  /// since the last publish, swaps the table, releases flush() waiters.
  /// No-op when nothing is unpublished.
  void publish_pending();
  /// Drain-side checkpoint initiation: when the persister says one is due
  /// and the worker is idle, rotate the WAL (cheap, synchronous — at this
  /// point appended == applied == published) and hand the current table's
  /// snapshot shared_ptrs to the worker for serialization. Skipped while a
  /// previous checkpoint is still being written — the WAL simply grows
  /// until the worker catches up.
  void maybe_begin_checkpoint();
  /// Background worker: serializes handed-off snapshots and commits the
  /// checkpoint file; never touches live state. A failure is parked in
  /// ckpt_error_ for flush() to rethrow.
  void checkpoint_loop();
  /// Replaces the published table with fresh COW exports of every shard
  /// (construction and load()); resets the COW accounting baselines.
  void republish_all_shards();

  /// Borrow the current table (one atomic shared_ptr load, acquire).
  [[nodiscard]] std::shared_ptr<const ShardTable> table() const {
    return table_.load();
  }

  /// Retained for checkpoint writing and load(); set before inner_ so
  /// construction-time recovery can use them.
  const FarmerConfig cfg_;
  std::shared_ptr<const TraceDictionary> dict_;

  /// Live mining state; owned exclusively by the drain thread after
  /// construction. Queries only ever read published snapshots.
  std::unique_ptr<ShardedFarmer> inner_;
  const std::size_t correlator_capacity_;
  std::vector<std::unique_ptr<MpscQueue<Batch>>> queues_;
  const std::size_t max_pending_;
  const std::size_t publish_interval_;
  const std::chrono::steady_clock::duration publish_max_delay_;

  /// RCU head: swapped (release) by the drain at every publish,
  /// loaded (acquire) by every query.
  AtomicSharedPtr<const ShardTable> table_;

  /// Records enqueued but not yet *published* (visible to queries); the
  /// stats() `pending` field. Shrinks only at the table swap so a reader
  /// can never observe "caught up" state that is not yet queryable.
  std::atomic<std::size_t> pending_{0};
  /// Records enqueued but not yet *applied* to the live miner — the queue
  /// memory the backpressure bound protects. Incremented before the queue
  /// push so `queued_ == 0` proves the drain has drained every accepted
  /// record out of the queues (the MPSC visibility window cannot
  /// under-count).
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::uint64_t> enqueued_total_{0};
  std::atomic<std::uint64_t> published_total_{0};
  /// Threads currently inside flush(): a nonzero count makes the drain
  /// publish after every apply round and on dry queues, interval or not —
  /// flush() is a strict barrier, coalescing only shapes steady state.
  std::atomic<std::uint32_t> flush_waiters_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_idle_{false};

  // Drain-thread-local publish state (touched only by the drain after
  // construction): the coalescing backlog and the COW accounting baseline.
  std::vector<std::uint8_t> touched_since_publish_;
  std::size_t unpublished_ = 0;
  std::chrono::steady_clock::time_point last_publish_;
  /// Per shard: cumulative COW mutations at this shard's previous publish —
  /// the delta is the blocks the round actually copied, everything else was
  /// shared.
  std::vector<std::uint64_t> publish_baseline_;
  std::uint64_t bytes_shared_total_ = 0;
  std::uint64_t publishes_total_ = 0;

  /// Wakes the drain thread (producers) and flush() waiters (drain thread).
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable drained_cv_;

  std::thread drain_thread_;

  /// Durability (null = persistence disabled). The drain thread appends to
  /// the WAL and initiates checkpoints; the worker thread serializes and
  /// commits them off immutable published snapshots.
  std::unique_ptr<persist::Persister> persister_;
  std::atomic<bool> ckpt_busy_{false};
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_stop_ = false;       // guarded by ckpt_mu_
  bool ckpt_job_ready_ = false;  // guarded by ckpt_mu_
  std::uint64_t ckpt_seq_ = 0;   // guarded by ckpt_mu_
  std::vector<std::shared_ptr<const Farmer>> ckpt_shards_;  // guarded
  std::exception_ptr ckpt_error_;  // guarded by ckpt_mu_; first unreported
  std::thread ckpt_thread_;
};

}  // namespace farmer
