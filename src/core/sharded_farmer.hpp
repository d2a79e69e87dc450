// Sharded mining.
//
// A peta-scale deployment runs many metadata servers, each mining the
// request streams of the clients it serves. `ShardedFarmer` models that:
// requests are partitioned by process id (stream affinity) across S
// independent Farmer shards that can ingest in parallel without sharing
// mutable state (Core Guidelines CP.3: minimize sharing). Queries merge the
// per-shard Correlator Lists by degree.
//
// Sharding by process also removes cross-process interleaving noise from
// each shard's window — the same effect the paper attributes to semantic
// filtering — so shard results are a strict-quality variant, not an
// approximation; the equivalence test pins down the exact relationship.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "api/correlation_miner.hpp"
#include "core/farmer.hpp"

namespace farmer {

class WorkerPool;

class ShardedFarmer final : public CorrelationMiner {
 public:
  /// `apply_threads` sizes the persistent worker pool behind
  /// observe_batch(): 0 = auto (hardware parallelism), 1 = serial apply, and
  /// anything higher caps at the shard count (a shard slice is the unit of
  /// parallelism). The pool only exists when the resolved count and the
  /// shard count both exceed one.
  ShardedFarmer(FarmerConfig cfg, std::shared_ptr<const TraceDictionary> dict,
                std::size_t shards, std::size_t apply_threads = 0);
  ~ShardedFarmer() override;

  /// Routes one request to its shard (serial ingest path).
  void observe(const TraceRecord& rec) override;

  /// Ingests a batch: the span is partitioned into contiguous per-shard
  /// slices preserving each stream's order, then the slices are applied
  /// concurrently on the worker pool (serially without one). Shards share
  /// no mutable state and per-shard record order is exactly the serial
  /// routing order, so the result is byte-identical to per-record observe()
  /// at every apply-thread count.
  void observe_batch(std::span<const TraceRecord> records) override;

  /// Apply threads the batch path actually uses (1 = serial).
  [[nodiscard]] std::size_t apply_thread_count() const noexcept;

  /// Merged Correlator List: concatenate per-shard lists in shard order,
  /// sort by descending degree (file id breaks ties), deduplicate keeping
  /// the strongest shard's entry, cap at the configured capacity. The sort
  /// is needed even though each shard list is sorted by degree: a shard can
  /// hold equal degrees in insertion order, not file id order
  /// (CorrelationGraph::upsert_correlator).
  [[nodiscard]] CorrelatorView snapshot(FileId f) const override;

  /// Scans each shard's list in place, no merge: true as soon as one shard
  /// lists an entry passing `test`. snapshot() keeps a subset of the union
  /// of the shard lists, so a false answer certifies that no merged entry
  /// passes either.
  [[nodiscard]] bool any_listed(FileId f,
                                FunctionRef<bool(FileId)> test) const override;

  /// Strongest per-shard evaluation — consistent with the merge rule
  /// (the strongest shard wins a duplicated pair).
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override;
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override;

  /// Global N_f: accesses of `f` summed over shards.
  [[nodiscard]] std::uint64_t access_count(FileId f) const override;
  /// Global F(pred, succ) = sum_s N_AB,s / sum_s N_A,s.
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override;

  /// One fused walk over the shards instead of four fan-outs per
  /// candidate: per shard, a's node, successor set and signature are
  /// fetched once, then each candidate costs one node lookup, one signature
  /// lookup and one similarity(). The arithmetic is the point queries' own,
  /// in the same order — N_b and sum_s N_AB,s / sum_s N_A,s summed in shard
  /// order, the strongest shard for similarity and degree — so every field
  /// equals the matching point query bit for bit.
  void candidate_evidence(FileId a, std::span<const Correlator> candidates,
                          std::span<PairEvidence> out) const override;

  [[nodiscard]] MinerStats stats() const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "sharded";
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Farmer& shard(std::size_t i) const {
    return *shards_.at(i);
  }
  /// Mutable shard access, for tests that seed one shard's state directly
  /// (restore_node). Recovery goes through load(); nothing else should
  /// mutate a shard from outside.
  [[nodiscard]] Farmer& shard_mut(std::size_t i) { return *shards_.at(i); }

  /// Checkpoints every shard into directory `dir`.
  void save(const std::string& dir) override;
  /// Restores from `dir`; shard count must match the checkpoint's. Only
  /// valid before any ingest; throws std::logic_error otherwise.
  void load(const std::string& dir) override;
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;

  /// Shard a record routes to (mix64 of the process id).
  [[nodiscard]] std::size_t shard_of(const TraceRecord& rec) const noexcept;

 private:
  FarmerConfig cfg_;
  std::vector<std::unique_ptr<Farmer>> shards_;
  /// Persistent apply workers (null = serial apply). Out-of-line dtor keeps
  /// WorkerPool an incomplete type here.
  std::unique_ptr<WorkerPool> pool_;
  /// Reusable per-shard slice buffers for observe_batch — capacity survives
  /// across batches so steady-state partitioning allocates nothing.
  std::vector<std::vector<TraceRecord>> slices_;
  /// Batch-apply counters surfaced through stats() (MinerStats contract:
  /// apply_batches / apply_parallel_records).
  std::uint64_t apply_batches_ = 0;
  std::uint64_t apply_parallel_records_ = 0;
};

}  // namespace farmer
