// Sharded concurrent mining.
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
//
// The cross-shard merge rules live in the static `merged_*` helpers, which
// operate on any span of Farmer shards — this class's live shards or the
// immutable shard snapshots the concurrent backend publishes RCU-style
// (export_shard_snapshot). Every consumer of shard state runs the same
// arithmetic in the same order, which is what makes "concurrent after
// flush() is byte-identical to sharded" a structural property instead of a
// test-enforced coincidence.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "api/correlation_miner.hpp"
#include "common/small_vector.hpp"
#include "core/cominer.hpp"
#include "core/farmer.hpp"
#include "vsm/similarity.hpp"

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

  /// Merged Correlator List across shards, sorted by degree, deduplicated
  /// (highest degree wins), capped at the configured capacity.
  [[nodiscard]] std::vector<Correlator> correlators(FileId f) const;

  /// Owning snapshot: the merge materializes a fresh list, so the view is
  /// immutable by construction.
  [[nodiscard]] CorrelatorView snapshot(FileId f) const override {
    return CorrelatorView(correlators(f));
  }

  /// Scans each shard's list in place (merged_any_listed): no merge.
  [[nodiscard]] bool any_listed(
      FileId f, FunctionRef<bool(FileId)> test) const override {
    return merged_any_listed(shards_, f, test);
  }

  /// Strongest per-shard evaluation — consistent with the merge rule
  /// (the strongest shard wins a duplicated pair).
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override;
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override;

  /// Global N_f: accesses of `f` summed over shards.
  [[nodiscard]] std::uint64_t access_count(FileId f) const override;
  /// Global F(pred, succ) = sum_s N_AB,s / sum_s N_A,s.
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override;

  /// One fused walk over the shards (merged_candidate_evidence) instead of
  /// four fan-outs per candidate.
  void candidate_evidence(FileId a, std::span<const Correlator> candidates,
                          std::span<PairEvidence> out) const override {
    merged_candidate_evidence(shards_, a, candidates, out);
  }

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
  /// Mutable shard access — the recovery path (src/persist) deserializes
  /// checkpoint blobs straight into the shards; nothing else should mutate
  /// a shard from outside.
  [[nodiscard]] Farmer& shard_mut(std::size_t i) { return *shards_.at(i); }

  /// Checkpoints every shard into directory `dir`.
  void save(const std::string& dir) override;
  /// Restores from `dir`; shard count must match the checkpoint's. Only
  /// valid before any ingest; throws std::logic_error otherwise.
  void load(const std::string& dir) override;
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;

  /// Shard a record routes to (mix64 of the process id). Exposed so the
  /// concurrent backend can tell which shards an apply round will touch and
  /// republish only those snapshots.
  [[nodiscard]] std::size_t shard_of(const TraceRecord& rec) const noexcept;

  /// Immutable copy-on-write snapshot of shard `i` for RCU publication:
  /// every const query on the returned Farmer answers exactly as the live
  /// shard would have at export time, and nothing can mutate it afterwards
  /// (it is frozen behind the const). The export structurally shares every
  /// per-file block with the live shard — O(pages) pointer copies — and the
  /// live shard clones exactly the blocks later ingest touches, so publish
  /// cost is proportional to the dirty set, not the shard size. Non-const
  /// because it advances the live shard's COW generation.
  [[nodiscard]] std::shared_ptr<const Farmer> export_shard_snapshot(
      std::size_t i) {
    return std::make_shared<const Farmer>(CowShare{}, *shards_.at(i));
  }

  /// COW accounting of shard `i` (see Farmer::cow_accounting).
  [[nodiscard]] CowStoreAccounting shard_cow_accounting(
      std::size_t i) const {
    return shards_.at(i)->cow_accounting();
  }
  /// Cumulative COW block clones across every shard.
  [[nodiscard]] std::uint64_t cow_clones() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->cow_clones();
    return total;
  }

  // Cross-shard merge rules over any shard set — templated on the range so
  // the live shards (vector<unique_ptr<Farmer>>) and the concurrent
  // backend's published snapshots (vector<shared_ptr<const Farmer>>) both
  // query without materializing a pointer array per call (the query paths
  // are allocation-free apart from the returned list). `*element` must
  // dereference to `const Farmer&`.

  /// Merged Correlator List: concatenate per-shard lists in shard order,
  /// sort by descending degree (file id breaks ties), deduplicate keeping
  /// the strongest shard's entry, cap at `capacity`. The concatenation
  /// stays inline for up to four full default-capacity shard lists. The
  /// sort is needed even though each shard list is sorted by degree: a
  /// shard can hold equal degrees in insertion order, not file id order
  /// (CorrelationGraph::upsert_correlator).
  template <typename ShardRange>
  [[nodiscard]] static std::vector<Correlator> merged_correlators(
      const ShardRange& shards, FileId f, std::size_t capacity) {
    SmallVector<Correlator, 32> merged;
    for (const auto& shard : shards)
      for (const Correlator& c : shard->correlator_list(f))
        merged.push_back(c);
    std::sort(merged.begin(), merged.end(),
              [](const Correlator& a, const Correlator& b) {
                if (a.degree != b.degree) return a.degree > b.degree;
                return a.file < b.file;
              });
    // Deduplicate successors: the strongest shard wins.
    std::vector<Correlator> out;
    out.reserve(std::min(merged.size(), capacity));
    for (const Correlator& c : merged) {
      const bool seen = std::any_of(
          out.begin(), out.end(),
          [&](const Correlator& o) { return o.file == c.file; });
      if (!seen) out.push_back(c);
      if (out.size() >= capacity) break;
    }
    return out;
  }

  /// any_listed over the shards without merging: true as soon as one
  /// shard lists an entry passing `test`. merged_correlators keeps a
  /// subset of the union of the shard lists, so a false answer certifies
  /// that no merged entry passes either.
  template <typename ShardRange>
  [[nodiscard]] static bool merged_any_listed(
      const ShardRange& shards, FileId f, FunctionRef<bool(FileId)> test) {
    for (const auto& shard : shards)
      for (const Correlator& c : shard->correlator_list(f))
        if (test(c.file)) return true;
    return false;
  }

  /// Strongest per-shard R(a, b) — consistent with the merge rule.
  template <typename ShardRange>
  [[nodiscard]] static double merged_correlation_degree(
      const ShardRange& shards, FileId a, FileId b) {
    double best = 0.0;
    for (const auto& shard : shards)
      best = std::max(best, shard->correlation_degree(a, b));
    return best;
  }

  template <typename ShardRange>
  [[nodiscard]] static double merged_semantic_similarity(
      const ShardRange& shards, FileId a, FileId b) {
    double best = 0.0;
    for (const auto& shard : shards)
      best = std::max(best, shard->semantic_similarity(a, b));
    return best;
  }

  /// Global N_f: accesses summed over shards.
  template <typename ShardRange>
  [[nodiscard]] static std::uint64_t merged_access_count(
      const ShardRange& shards, FileId f) {
    std::uint64_t total = 0;
    for (const auto& shard : shards) total += shard->access_count(f);
    return total;
  }

  /// Global F(pred, succ) = sum_s N_AB,s / sum_s N_A,s.
  template <typename ShardRange>
  [[nodiscard]] static double merged_access_frequency(
      const ShardRange& shards, FileId pred, FileId succ) {
    double nab = 0.0;
    std::uint64_t na = 0;
    for (const auto& shard : shards) {
      nab += shard->graph().edge_weight(pred, succ);
      na += shard->graph().access_count(pred);
    }
    return na == 0 ? 0.0 : nab / static_cast<double>(na);
  }

  /// candidate_evidence in one walk over the shards: per shard, a's node,
  /// successor set and signature are fetched once, then each candidate
  /// costs one node lookup, one signature lookup and one similarity(). The
  /// arithmetic is the merged_* helpers' own, in the same order — N_b and
  /// sum_s N_AB,s / sum_s N_A,s summed in shard order, the strongest shard
  /// for similarity and degree — so every field equals the matching point
  /// query bit for bit. (A shard without state for a or b contributes 0 to
  /// a max that starts at 0, so skipping it changes nothing.)
  template <typename ShardRange>
  static void merged_candidate_evidence(const ShardRange& shards, FileId a,
                                        std::span<const Correlator> candidates,
                                        std::span<PairEvidence> out) {
    assert(out.size() >= candidates.size());
    const std::size_t n = candidates.size();
    for (std::size_t i = 0; i < n; ++i) out[i] = PairEvidence{};
    std::uint64_t na = 0;
    for (const auto& shard : shards) {
      const SignatureGraph& g = shard->graph();
      const std::uint64_t na_s = g.access_count(a);
      const auto& succs = g.successors(a);
      const Signature* sig_a = shard->signature_of(a);
      const double p = shard->config().p;
      na += na_s;
      for (std::size_t i = 0; i < n; ++i) {
        const FileId b = candidates[i].file;
        PairEvidence& e = out[i];
        const double nab = SignatureGraph::edge_weight_in(succs, b);
        e.access_count += g.access_count(b);
        e.frequency += nab;  // sum_s N_AB,s; divided by sum_s N_A,s below
        const Signature* sig_b = sig_a ? shard->signature_of(b) : nullptr;
        if (!sig_b) continue;
        const double sim = similarity(*sig_a, *sig_b);
        const double freq =
            na_s == 0 ? 0.0 : nab / static_cast<double>(na_s);
        e.similarity = std::max(e.similarity, sim);
        e.degree = std::max(e.degree, CoMiner::degree(p, sim, freq));
      }
    }
    for (std::size_t i = 0; i < n; ++i)
      out[i].frequency =
          na == 0 ? 0.0 : out[i].frequency / static_cast<double>(na);
  }

  /// Sums the four mining counters over shards; shards/epoch/pending are
  /// left at their zero defaults for the caller to fill in.
  template <typename ShardRange>
  [[nodiscard]] static MinerStats merged_stats(const ShardRange& shards) {
    MinerStats total;
    for (const auto& shard : shards) {
      const MinerStats s = shard->stats();
      total.requests += s.requests;
      total.pairs_evaluated += s.pairs_evaluated;
      total.pairs_accepted += s.pairs_accepted;
      total.pairs_filtered += s.pairs_filtered;
    }
    return total;
  }

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
