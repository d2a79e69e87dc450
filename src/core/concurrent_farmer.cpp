#include "core/concurrent_farmer.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "persist/checkpoint.hpp"

namespace farmer {

ConcurrentFarmer::ConcurrentFarmer(FarmerConfig cfg,
                                   std::shared_ptr<const TraceDictionary> dict,
                                   std::size_t shards,
                                   std::size_t ingest_queues,
                                   std::size_t max_pending,
                                   std::size_t publish_interval_records,
                                   std::size_t publish_max_delay_ms,
                                   std::unique_ptr<persist::Persister> persister,
                                   std::size_t apply_threads)
    : cfg_(cfg),
      dict_(std::move(dict)),
      inner_(std::make_unique<ShardedFarmer>(cfg_, dict_, shards,
                                             apply_threads)),
      correlator_capacity_(cfg_.correlator_capacity),
      max_pending_(max_pending == 0 ? kDefaultMaxPending : max_pending),
      publish_interval_(publish_interval_records),
      publish_max_delay_(publish_max_delay_ms == 0
                             ? std::chrono::steady_clock::duration(
                                   kDefaultPublishMaxDelay)
                             : std::chrono::milliseconds(
                                   publish_max_delay_ms)),
      persister_(std::move(persister)) {
  const std::size_t slots = ingest_queues == 0 ? 1 : ingest_queues;
  queues_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i)
    queues_.push_back(std::make_unique<MpscQueue<Batch>>());

  touched_since_publish_.assign(inner_->shard_count(), 0);
  publish_baseline_.assign(inner_->shard_count(), 0);
  last_publish_ = std::chrono::steady_clock::now();

  if (persister_) {
    // Recover the persist directory into the live miner before the epoch-0
    // publish, so the recovered model is queryable from the first table a
    // reader can load.
    persist::Recovery rec = persister_->open(cfg_, dict_);
    if (!rec.shard_blobs.empty()) {
      if (rec.shard_blobs.size() != inner_->shard_count())
        throw std::runtime_error(
            "ConcurrentFarmer: checkpoint shard count mismatch (got " +
            std::to_string(rec.shard_blobs.size()) + ", want " +
            std::to_string(inner_->shard_count()) + ")");
      for (std::size_t s = 0; s < inner_->shard_count(); ++s)
        persist::deserialize_shard(rec.shard_blobs[s], inner_->shard_mut(s));
    }
    if (!rec.tail.empty()) inner_->observe_batch(rec.tail);
    ckpt_thread_ = std::thread([this] { checkpoint_loop(); });
  }

  // Publish the epoch-0 table (snapshots of the empty or recovered shards)
  // before the drain starts, so a query can never observe a null table.
  republish_all_shards();

  drain_thread_ = std::thread([this] { drain_loop(); });
}

ConcurrentFarmer::~ConcurrentFarmer() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_cv_.notify_all();
  }
  if (drain_thread_.joinable()) drain_thread_.join();
  // The drain's final publish may have handed the worker one last job; the
  // worker finishes any pending job before honoring the stop flag, and the
  // Persister destructor then syncs whatever the WAL still buffers.
  if (ckpt_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ckpt_mu_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.notify_one();
    ckpt_thread_.join();
  }
}

void ConcurrentFarmer::republish_all_shards() {
  const std::shared_ptr<const ShardTable> cur = table_.load();
  auto next = std::make_shared<ShardTable>();
  next->shards.reserve(inner_->shard_count());
  std::uint64_t files_cloned = 0;
  for (std::size_t s = 0; s < inner_->shard_count(); ++s) {
    next->shards.push_back(inner_->export_shard_snapshot(s));
    files_cloned += inner_->shard(s).cow_clones();
    publish_baseline_[s] = inner_->shard_cow_accounting(s).mutations;
  }
  if (cur) {
    next->shard_epochs = cur->shard_epochs;
    for (std::uint64_t& e : next->shard_epochs) ++e;
    next->epoch = cur->epoch + 1;
  } else {
    next->shard_epochs.assign(inner_->shard_count(), 0);
  }
  next->stats = inner_->stats();
  next->stats.publishes = publishes_total_;
  next->stats.files_cloned = files_cloned;
  next->stats.bytes_shared = bytes_shared_total_;
  std::fill(touched_since_publish_.begin(), touched_since_publish_.end(),
            std::uint8_t{0});
  table_.store(std::move(next));
  last_publish_ = std::chrono::steady_clock::now();
}

std::size_t ConcurrentFarmer::slot_of_this_thread() const noexcept {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
         queues_.size();
}

void ConcurrentFarmer::enqueue(Batch batch) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  // Soft backpressure: a stalled drain must not let queued records balloon.
  // Yield-spin rather than lock so the fast path stays lock-free. A batch
  // larger than max_pending_ is admitted once the drain has fully caught up
  // (queued_ == 0) — blocking it outright could never unblock — so the
  // bound is max(max_pending_, largest single batch). The bound covers
  // queue memory only: records the drain already applied but has not yet
  // published (coalescing backlog) live inside the miner, not the queues.
  while (true) {
    const std::size_t queued = queued_.load(std::memory_order_acquire);
    if (queued == 0 || queued + n <= max_pending_ ||
        stop_.load(std::memory_order_acquire))
      break;
    std::this_thread::yield();
  }
  // Both counters grow before the push: queued_ == 0 therefore proves every
  // accepted record has been applied, even inside the MPSC visibility
  // window, and pending_ == 0 proves it has also been published.
  pending_.fetch_add(n, std::memory_order_release);
  queued_.fetch_add(n, std::memory_order_release);
  enqueued_total_.fetch_add(n, std::memory_order_release);
  queues_[slot_of_this_thread()]->push(std::move(batch));
  if (drain_idle_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_cv_.notify_one();
  }
}

void ConcurrentFarmer::observe(const TraceRecord& rec) {
  enqueue(Batch{rec});
}

void ConcurrentFarmer::observe_batch(std::span<const TraceRecord> records) {
  enqueue(Batch(records.begin(), records.end()));
}

void ConcurrentFarmer::flush() {
  const std::uint64_t target = enqueued_total_.load(std::memory_order_acquire);
  // Announce the waiter first: a drain holding a coalesced backlog must
  // publish for us even when the record interval has not been reached.
  flush_waiters_.fetch_add(1, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.notify_one();
    // published_total_ is bumped only *after* the table swap, so reaching
    // the target proves the published table reflects every accepted record.
    drained_cv_.wait(lk, [&] {
      return published_total_.load(std::memory_order_acquire) >= target;
    });
  }
  flush_waiters_.fetch_sub(1, std::memory_order_release);
  if (!persister_) return;
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(ckpt_mu_);
    error = std::exchange(ckpt_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

std::size_t ConcurrentFarmer::collect(Batch& into) {
  std::size_t total = 0;
  Batch batch;
  for (auto& q : queues_) {
    while (q->pop(batch)) {
      total += batch.size();
      into.insert(into.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    }
  }
  return total;
}

bool ConcurrentFarmer::publish_due() const {
  if (publish_interval_ <= 1 || unpublished_ >= publish_interval_)
    return true;
  return std::chrono::steady_clock::now() - last_publish_ >=
         publish_max_delay_;
}

void ConcurrentFarmer::publish_pending() {
  if (unpublished_ == 0) return;

  const std::shared_ptr<const ShardTable> cur = table_.load();
  auto next = std::make_shared<ShardTable>();
  next->shards = cur->shards;
  next->shard_epochs = cur->shard_epochs;
  std::uint64_t files_cloned = 0;
  for (std::size_t s = 0; s < touched_since_publish_.size(); ++s) {
    // files_cloned is cumulative over every shard whether or not it is
    // republished this round (clones happen at write time, publishes only
    // harvest the count).
    files_cloned += inner_->shard(s).cow_clones();
    if (!touched_since_publish_[s]) continue;
    // COW export: O(pages) pointer copies; the blocks this window dirtied
    // were already cloned by the live side at write time. Everything the
    // mutation deltas did NOT touch is structurally shared — account it.
    const CowStoreAccounting acct = inner_->shard_cow_accounting(s);
    const std::uint64_t mutated = acct.mutations - publish_baseline_[s];
    const std::uint64_t shared_blocks =
        acct.blocks > mutated ? acct.blocks - mutated : 0;
    bytes_shared_total_ +=
        shared_blocks * static_cast<std::uint64_t>(acct.block_bytes);
    publish_baseline_[s] = acct.mutations;
    next->shards[s] = inner_->export_shard_snapshot(s);
    ++next->shard_epochs[s];
    touched_since_publish_[s] = 0;
  }
  next->epoch = cur->epoch + 1;
  next->stats = inner_->stats();  // includes shards = shard_count()
  next->stats.publishes = ++publishes_total_;
  next->stats.files_cloned = files_cloned;
  next->stats.bytes_shared = bytes_shared_total_;
  table_.store(std::move(next));
  last_publish_ = std::chrono::steady_clock::now();

  // Counter order matters: published_total_ (the flush() predicate) and
  // pending_ shrink only after the swap, so neither flush() nor stats()
  // can observe "published" records that are not yet queryable.
  pending_.fetch_sub(unpublished_, std::memory_order_release);
  published_total_.fetch_add(unpublished_, std::memory_order_release);
  unpublished_ = 0;
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    drained_cv_.notify_all();
  }
  // Right after a publish is the one point where appended == applied ==
  // published, which is exactly the cut a checkpoint must capture.
  maybe_begin_checkpoint();
}

void ConcurrentFarmer::maybe_begin_checkpoint() {
  if (!persister_ || !persister_->checkpoint_due()) return;
  // One checkpoint in flight at a time: while the worker is still writing,
  // the WAL simply keeps growing and the next publish retries.
  if (ckpt_busy_.load(std::memory_order_acquire)) return;
  const std::uint64_t seq = persister_->begin_checkpoint();
  const std::shared_ptr<const ShardTable> t = table_.load();
  {
    std::lock_guard<std::mutex> lk(ckpt_mu_);
    ckpt_seq_ = seq;
    ckpt_shards_ = t->shards;
    ckpt_job_ready_ = true;
    ckpt_busy_.store(true, std::memory_order_release);
  }
  ckpt_cv_.notify_one();
}

void ConcurrentFarmer::checkpoint_loop() {
  for (;;) {
    std::uint64_t seq = 0;
    std::vector<std::shared_ptr<const Farmer>> shards;
    {
      std::unique_lock<std::mutex> lk(ckpt_mu_);
      ckpt_cv_.wait(lk, [&] { return ckpt_job_ready_ || ckpt_stop_; });
      if (!ckpt_job_ready_) break;  // stop requested with no pending job
      seq = ckpt_seq_;
      shards = std::move(ckpt_shards_);
      ckpt_job_ready_ = false;
    }
    // Serialization reads only the immutable published snapshots the job
    // captured — the heavy part of a checkpoint never stalls the drain, the
    // producers or the queries. A failed write (disk full, file-size limit)
    // must not escape this thread: the error is parked for the next
    // flush(), and the previous checkpoint plus the WAL stay valid because
    // commit_checkpoint prunes only after its file write succeeded.
    try {
      std::vector<std::string> blobs;
      blobs.reserve(shards.size());
      for (const std::shared_ptr<const Farmer>& s : shards)
        blobs.push_back(persist::serialize_shard(*s));
      persister_->commit_checkpoint(seq, blobs);
    } catch (...) {
      std::lock_guard<std::mutex> lk(ckpt_mu_);
      if (!ckpt_error_) ckpt_error_ = std::current_exception();
    }
    // Idle again either way, so a later publish retries.
    ckpt_busy_.store(false, std::memory_order_release);
  }
}

void ConcurrentFarmer::apply(const Batch& batch) {
  // WAL before apply, on the drain thread: WAL order is exactly apply order,
  // so the durable prefix is always a prefix of the applied history.
  // Records still queued (accepted but not yet drained) at a crash were
  // never appended — the documented loss window of this backend.
  if (persister_) persister_->append(std::span<const TraceRecord>(batch));
  // The drain owns inner_ exclusively: no lock is needed to mutate it, and
  // readers only ever see the immutable table published by
  // publish_pending(). observe_batch is the shard-disjoint parallel apply:
  // with apply_threads > 1 the drain thread becomes one lane of the inner
  // miner's worker pool and the batch is applied shard-concurrently —
  // byte-identical to the old serial replay because per-shard record order
  // is preserved and shards share no mutable state.
  inner_->observe_batch(batch);
  for (const TraceRecord& r : batch)
    touched_since_publish_[inner_->shard_of(r)] = 1;
  unpublished_ += batch.size();
  // Queue memory is released as soon as the records are applied; visibility
  // (pending_) waits for the publish.
  queued_.fetch_sub(batch.size(), std::memory_order_release);
  // A waiting flush() overrides the coalescing interval here too — under
  // sustained ingest the queues may never run dry, and the barrier must
  // not stall until the staleness deadline when its records are already
  // applied.
  if (publish_due() || flush_waiters_.load(std::memory_order_acquire) > 0)
    publish_pending();
}

void ConcurrentFarmer::drain_loop() {
  using namespace std::chrono_literals;
  Batch buf;
  for (;;) {
    buf.clear();
    if (collect(buf) > 0) {
      apply(buf);
      continue;
    }
    // Queues are dry. A coalesced backlog is held back until the record
    // interval fills, but never past the staleness deadline — and a
    // waiting flush() overrides the interval entirely, so the barrier
    // completes as soon as the queues empty.
    if (unpublished_ > 0 &&
        (publish_due() ||
         flush_waiters_.load(std::memory_order_acquire) > 0))
      publish_pending();
    if (stop_.load(std::memory_order_acquire)) break;
    if (queued_.load(std::memory_order_acquire) > 0) {
      // A push is mid-flight in the MPSC visibility window; retry shortly.
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    drain_idle_.store(true, std::memory_order_release);
    // Timed wait: the idle-flag handshake has a benign race (a producer can
    // read drain_idle_ == false just before we set it); the predicate plus
    // the timeout make a lost notify cost at most one period, never a hang
    // — and the period doubles as the backlog's deadline-poll granularity.
    wake_cv_.wait_for(lk, 1ms, [&] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0 ||
             (unpublished_ > 0 &&
              flush_waiters_.load(std::memory_order_acquire) > 0);
    });
    drain_idle_.store(false, std::memory_order_release);
  }
  // Apply whatever is still queued so destruction never drops records.
  for (;;) {
    buf.clear();
    if (collect(buf) == 0) break;
    apply(buf);
  }
  publish_pending();
}

CorrelatorView ConcurrentFarmer::snapshot(FileId f) const {
  const auto t = table();
  return CorrelatorView(
      ShardedFarmer::merged_correlators(t->shards, f, correlator_capacity_));
}

bool ConcurrentFarmer::any_listed(FileId f,
                                  FunctionRef<bool(FileId)> test) const {
  const auto t = table();
  return ShardedFarmer::merged_any_listed(t->shards, f, test);
}

EpochSnapshot ConcurrentFarmer::epoch_snapshot(FileId f) const {
  // One table load serves both members, so the stamp always matches the
  // state the view was cut from.
  const auto t = table();
  EpochSnapshot snap;
  snap.view = CorrelatorView(
      ShardedFarmer::merged_correlators(t->shards, f, correlator_capacity_));
  snap.epoch = t->epoch;
  return snap;
}

double ConcurrentFarmer::correlation_degree(FileId a, FileId b) const {
  const auto t = table();
  return ShardedFarmer::merged_correlation_degree(t->shards, a, b);
}

double ConcurrentFarmer::semantic_similarity(FileId a, FileId b) const {
  const auto t = table();
  return ShardedFarmer::merged_semantic_similarity(t->shards, a, b);
}

std::uint64_t ConcurrentFarmer::access_count(FileId f) const {
  const auto t = table();
  return ShardedFarmer::merged_access_count(t->shards, f);
}

double ConcurrentFarmer::access_frequency(FileId pred, FileId succ) const {
  const auto t = table();
  return ShardedFarmer::merged_access_frequency(t->shards, pred, succ);
}

void ConcurrentFarmer::candidate_evidence(
    FileId a, std::span<const Correlator> candidates,
    std::span<PairEvidence> out) const {
  const auto t = table();
  ShardedFarmer::merged_candidate_evidence(t->shards, a, candidates, out);
}

void ConcurrentFarmer::save(const std::string& dir) {
  flush();
  // After flush() the published table covers every accepted record, and it
  // is immutable — the checkpoint can be cut from it while ingest resumes.
  // stats.requests is the absolute record sequence (recovered records
  // included), which is what the checkpoint seq must be.
  const std::shared_ptr<const ShardTable> t = table_.load();
  std::vector<const Farmer*> view;
  view.reserve(t->shards.size());
  for (const std::shared_ptr<const Farmer>& s : t->shards)
    view.push_back(s.get());
  persist::write_checkpoint_dir(dir, t->stats.requests, cfg_, dict_.get(),
                                std::span<const Farmer* const>(view));
}

void ConcurrentFarmer::load(const std::string& dir) {
  if (enqueued_total_.load(std::memory_order_acquire) != 0 ||
      table_.load()->stats.requests != 0)
    throw std::logic_error(
        "ConcurrentFarmer::load: miner has already ingested");
  // Pause the drain for the model surgery; queries keep answering from the
  // published (empty) table meanwhile.
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_cv_.notify_all();
  }
  if (drain_thread_.joinable()) drain_thread_.join();
  stop_.store(false, std::memory_order_release);

  persist::Recovery rec = persist::recover_dir(dir, cfg_, dict_.get());
  if (!rec.shard_blobs.empty()) {
    if (rec.shard_blobs.size() != inner_->shard_count())
      throw std::runtime_error(
          "ConcurrentFarmer::load: checkpoint shard count mismatch (got " +
          std::to_string(rec.shard_blobs.size()) + ", want " +
          std::to_string(inner_->shard_count()) + ")");
    for (std::size_t s = 0; s < inner_->shard_count(); ++s)
      persist::deserialize_shard(rec.shard_blobs[s], inner_->shard_mut(s));
  }
  if (!rec.tail.empty()) inner_->observe_batch(rec.tail);
  republish_all_shards();

  if (persister_) {
    // Re-base the persist directory on the loaded sequence: the WAL rotates
    // to it and a covering checkpoint is committed synchronously, so crash
    // recovery reproduces the loaded model plus later ingest.
    const std::uint64_t seq = rec.durable_records();
    persister_->rebase(seq);
    std::vector<std::string> blobs;
    blobs.reserve(inner_->shard_count());
    for (std::size_t s = 0; s < inner_->shard_count(); ++s)
      blobs.push_back(persist::serialize_shard(inner_->shard(s)));
    persister_->commit_checkpoint(seq, blobs);
  }

  drain_thread_ = std::thread([this] { drain_loop(); });
}

MinerStats ConcurrentFarmer::stats() const {
  const auto t = table();
  MinerStats s = t->stats;
  s.epoch = t->epoch;
  s.shard_epochs = t->shard_epochs;
  s.pending = pending_.load(std::memory_order_acquire);
  return s;
}

std::size_t ConcurrentFarmer::footprint_bytes() const noexcept {
  // Readers may not touch inner_ (drain-owned); account the published
  // snapshots, which structurally share every untouched per-file block with
  // the live state, and double them to cover the live mirror. With COW that
  // is an upper bound — real residency is one copy of shared blocks plus
  // the cloned dirty deltas — but it stays the honest worst case a reader
  // can compute without touching drain-owned state.
  const auto t = table();
  std::size_t snapshots = 0;
  for (const auto& s : t->shards) snapshots += s->footprint_bytes();
  return sizeof(*this) + 2 * snapshots +
         queues_.size() * sizeof(MpscQueue<Batch>) +
         queued_.load(std::memory_order_acquire) * sizeof(TraceRecord);
}

}  // namespace farmer
