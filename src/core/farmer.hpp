// The FARMER model: the four-stage pipeline of Section 3.1.
//
//   Stage 1  Extracting    — request -> semantic vector (Extractor)
//   Stage 2  Constructing  — sliding window -> weighted correlation graph
//   Stage 3  Mining & Evaluating — CoMiner computes R(x,y) per touched pair
//   Stage 4  Sorting       — Correlator Lists kept sorted by degree
//
// `observe()` runs all four stages for one request; the model is fully
// incremental ("iterative process that repeats itself for each incoming
// request"). Correlator Lists are the public product, consumed through the
// `CorrelationMiner` interface by the prefetcher (Section 4.1) and the
// layout optimizer (Section 4.2).
//
// All per-file state lives in one block per file (`common/block_store.hpp`):
// the graph node (successors, Correlator List, N_f) with the file's
// Signature as its payload. A file has a block exactly when it has a
// recorded context: only observe() and the checkpoint restore create
// blocks, and both write the signature as they do. A Farmer owns its
// blocks; it is neither copyable nor movable (its CoMiner holds references
// to its own config and graph).
#pragma once

#include <memory>
#include <vector>

#include "api/correlation_miner.hpp"
#include "core/cominer.hpp"
#include "core/config.hpp"
#include "core/extractor.hpp"
#include "graph/access_window.hpp"
#include "graph/correlation_graph.hpp"
#include "trace/record.hpp"

namespace farmer {

class Farmer : public CorrelationMiner {
 public:
  Farmer(FarmerConfig cfg, std::shared_ptr<const TraceDictionary> dict);
  Farmer(const Farmer&) = delete;
  Farmer& operator=(const Farmer&) = delete;

  /// Ingests one file request (all four stages).
  void observe(const TraceRecord& rec) override;

  /// Batch ingest without per-record bookkeeping: one requests_ update for
  /// the whole span, with the same per-record pipeline (so batch and serial
  /// ingest stay byte-identical).
  void observe_batch(std::span<const TraceRecord> records) override;

  /// Sorted Correlator List of `f` (may be empty). Entries all satisfy
  /// degree >= max_strength at their last evaluation. Zero-copy fast path
  /// for concrete-`Farmer` callers; interface callers use snapshot().
  [[nodiscard]] const CorrelatorList& correlator_list(
      FileId f) const noexcept {
    return graph_.correlators(f);
  }

  /// A copy of the live list.
  [[nodiscard]] CorrelatorView snapshot(FileId f) const override {
    CorrelatorView::List copy;
    for (const Correlator& c : graph_.correlators(f)) copy.push_back(c);
    return CorrelatorView(std::move(copy));
  }

  /// Scans the live list in place, without the copy snapshot() makes.
  [[nodiscard]] bool any_listed(FileId f,
                                FunctionRef<bool(FileId)> test) const override {
    for (const Correlator& c : graph_.correlators(f))
      if (test(c.file)) return true;
    return false;
  }

  /// Correlation degree between two files under the current state
  /// (evaluation-only; does not modify any list).
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override;

  /// Raw semantic distance sim(a, b) under the current state (no frequency
  /// component); 0 when either file has no recorded context yet.
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override;

  [[nodiscard]] std::uint64_t access_count(FileId f) const override {
    return graph_.access_count(f);
  }
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override {
    return graph_.access_frequency(pred, succ);
  }

  /// Signature of `f`'s most recent request context; nullptr before its
  /// first access. The per-shard input of the fused candidate-evidence
  /// pass (ShardedFarmer::candidate_evidence).
  [[nodiscard]] const Signature* signature_of(FileId f) const noexcept {
    return graph_.payload(f);
  }

  [[nodiscard]] const SignatureGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const FarmerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] MinerStats stats() const override {
    MinerStats s;
    s.requests = requests_;
    s.pairs_evaluated = miner_.stats().pairs_evaluated;
    s.pairs_accepted = miner_.stats().pairs_accepted;
    s.pairs_filtered = miner_.stats().pairs_filtered;
    s.shards = 1;
    s.footprint = graph_.footprint_breakdown();
    return s;
  }

  [[nodiscard]] const char* name() const noexcept override { return "farmer"; }

  /// Total additional memory FARMER holds: graph + correlator lists +
  /// per-active-file signatures (Table 4 accounting). O(1): the block store
  /// keeps running counters, so the serving loop can sample it per window.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return graph_.footprint_bytes();
  }
  /// footprint_bytes() by walking every block — the test oracle for the
  /// running counters.
  [[nodiscard]] std::size_t recount_footprint_bytes() const {
    return graph_.recount_footprint_bytes();
  }

  // ---- persistence (src/persist) ----------------------------------------

  /// Checkpoints the full model into directory `dir`.
  void save(const std::string& dir) override;
  /// Restores from `dir` (newest valid checkpoint + WAL tail replay). Only
  /// valid before any ingest; throws std::logic_error otherwise.
  void load(const std::string& dir) override;

  /// Requests observed so far — the WAL sequence domain.
  [[nodiscard]] std::uint64_t request_count() const noexcept {
    return requests_;
  }
  /// The trace dictionary this miner extracts from (may be null in tests).
  [[nodiscard]] const TraceDictionary* dictionary() const noexcept {
    return extractor_.dictionary();
  }
  [[nodiscard]] const CoMinerStats& miner_stats() const noexcept {
    return miner_.stats();
  }
  [[nodiscard]] const AccessWindow& access_window() const noexcept {
    return window_;
  }

  /// Restore seams — persist::deserialize_shard is the only intended caller.
  /// Byte-identical recovery depends on these reproducing internal state
  /// exactly (window order, successor order, Correlator-List order,
  /// the dense index's logical size).
  void restore_counters(std::uint64_t requests, CoMinerStats stats);
  void restore_window_push(FileId f);
  /// Recreates f's block — signature and graph node together — exactly as
  /// checkpointed.
  void restore_node(FileId f, std::uint64_t access_count,
                    std::span<const SuccessorEdge> succs,
                    std::span<const Correlator> correlators,
                    const Signature& sig);
  /// Grows the dense per-file index to its checkpointed logical size.
  void restore_node_count(std::size_t nodes);

 private:
  void observe_impl(const TraceRecord& rec);

  FarmerConfig cfg_;
  Extractor extractor_;
  /// Per-file blocks, dense by FileId: graph node + Signature.
  SignatureGraph graph_;
  CoMiner miner_;
  AccessWindow window_;
  std::uint64_t requests_ = 0;

  /// Extraction scratch for observe_impl: reused across records so a deep
  /// path's components spill to the heap once, not once per record. It
  /// carries no model state and is rewritten before every use.
  SemanticVector scratch_vec_;
};

}  // namespace farmer
