// The mining API boundary.
//
// The paper's FARMER model is one *producer* of Correlator Lists; the
// downstream optimizers — metadata prefetching (Section 4.1) and data
// layout (Section 4.2) — only ever consume the lists plus a handful of
// evaluation queries. `CorrelationMiner` is that boundary, mirroring the
// `Predictor` polymorphism in prefetch/predictor.hpp: consumers bind to the
// interface and either backend (serial FARMER or sharded FARMER) plugs in
// behind it without recompiling a single consumer.
//
// Queries go through `snapshot()`, which returns a `CorrelatorView`: a
// copy of one Correlator List that further ingest never changes, so the
// caller never observes a list mid-resort. `any_listed()` is the cheap
// question a caller asks before paying for that copy (or, on "sharded",
// the merge behind it): does any listed Correlator pass a test? Both
// backends answer it from their own lists in place.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/function_ref.hpp"
#include "common/small_vector.hpp"
#include "common/types.hpp"
#include "graph/correlation_graph.hpp"
#include "trace/record.hpp"

namespace farmer {

/// Backend-agnostic counters (Table 4 / Section 3.3 accounting).
///
/// Field contract — every backend fills every field with a defined value,
/// never garbage. Both backends apply records inside observe(), so every
/// counter is current when the call returns. The batch-apply counters
/// (`apply_batches`, `apply_parallel_records`) are owned by the sharded
/// apply path: "sharded" fills them, "farmer" keeps them at zero
/// (MinerStatsContract tests pin this down).
struct MinerStats {
  std::uint64_t requests = 0;         ///< observe() calls ingested
  std::uint64_t pairs_evaluated = 0;  ///< CoMiner R(x,y) evaluations
  std::uint64_t pairs_accepted = 0;   ///< R >= max_strength
  std::uint64_t pairs_filtered = 0;   ///< R <  max_strength
  std::size_t shards = 1;             ///< parallel mining partitions
  std::uint64_t apply_batches = 0;  ///< observe_batch spans the sharded
                                    ///< apply path partitioned (0 =
                                    ///< per-record ingest only)
  std::uint64_t apply_parallel_records = 0;  ///< records applied through the
                                    ///< shard-disjoint worker pool (> 1
                                    ///< apply thread; 0 = every batch was
                                    ///< applied serially)
  /// footprint_bytes() split by structure; the parts sum to it exactly.
  FootprintBreakdown footprint;

  [[nodiscard]] double acceptance_rate() const noexcept {
    return pairs_evaluated
               ? static_cast<double>(pairs_accepted) /
                     static_cast<double>(pairs_evaluated)
               : 0.0;
  }
};

/// The four point-query answers about one candidate successor `b` of a
/// requested file `a` — the evidence FPA re-checks per Correlator before it
/// spends an I/O (see CorrelationMiner::candidate_evidence).
struct PairEvidence {
  std::uint64_t access_count = 0;  ///< access_count(b): N_b
  double frequency = 0.0;          ///< access_frequency(a, b): F(a, b)
  double similarity = 0.0;         ///< semantic_similarity(a, b)
  double degree = 0.0;             ///< correlation_degree(a, b): R(a, b)
};

/// A snapshot of one file's Correlator List: a value that holds its own
/// copy of the entries, so no later call on the miner (observe(),
/// observe_batch(), flush(), or destroying the miner) changes it. Up to 8
/// entries, the default correlator_capacity, are stored inline.
class CorrelatorView {
 public:
  using List = SmallVector<Correlator, 8>;

  CorrelatorView() = default;
  explicit CorrelatorView(List entries) noexcept
      : entries_(std::move(entries)) {}

  [[nodiscard]] std::span<const Correlator> entries() const noexcept {
    return {entries_.data(), entries_.size()};
  }
  [[nodiscard]] const Correlator* begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const Correlator* end() const noexcept {
    return entries_.end();
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const Correlator& operator[](std::size_t i) const noexcept {
    return entries_[i];
  }

 private:
  List entries_;
};

/// Abstract producer of Correlator Lists.
///
/// Thread-safety contract: single-threaded. Neither backend ("farmer",
/// "sharded") may be called concurrently from multiple threads, in any
/// method combination; the caller synchronizes. "sharded" may run its own
/// apply lanes inside observe_batch(), but they finish before the call
/// returns.
class CorrelationMiner {
 public:
  virtual ~CorrelationMiner() = default;

  /// Ingests one file request (the full mining pipeline of the backend).
  virtual void observe(const TraceRecord& rec) = 0;

  /// Ingests a batch; the model ends exactly as after one observe() per
  /// record, in order. "sharded" applies the per-shard slices in parallel.
  virtual void observe_batch(std::span<const TraceRecord> records) = 0;

  /// Barrier: returns once every record accepted by observe()/observe_batch()
  /// before this call is reflected in queries. Both backends apply records
  /// inside observe(), so it is a no-op for them; instrumenting wrappers
  /// forward it. The durability decorator also fsyncs its WAL, so on return
  /// those records are durable, and throws std::system_error when that
  /// sync fails.
  virtual void flush() {}

  /// A copy of `f`'s Correlator List, sorted by descending degree. Every
  /// entry passed the backend's validity threshold.
  [[nodiscard]] virtual CorrelatorView snapshot(FileId f) const = 0;

  /// Does some Correlator listed for `f` pass `test`? A false answer
  /// certifies that no entry of snapshot(f) passes `test`, when no ingest
  /// runs between the two calls; a true answer promises nothing about the
  /// snapshot. The default body scans snapshot(f), so it answers exactly,
  /// but pays for the copy. Both backends override it with a scan of their
  /// own lists in place, and the durability decorator forwards. "sharded"
  /// scans its per-shard lists: the merged list is a subset of their union,
  /// so a false answer still holds, and a true one may come from an entry
  /// the merge dedupes or cuts at capacity. `test` must have no side
  /// effects.
  [[nodiscard]] virtual bool any_listed(FileId f,
                                        FunctionRef<bool(FileId)> test) const {
    for (const Correlator& c : snapshot(f))
      if (test(c.file)) return true;
    return false;
  }

  /// R(a, b) under the current state (evaluation-only; no list updates).
  [[nodiscard]] virtual double correlation_degree(FileId a, FileId b) const = 0;

  /// Raw semantic distance sim(a, b); 0 when either file has no recorded
  /// context yet.
  [[nodiscard]] virtual double semantic_similarity(FileId a,
                                                   FileId b) const = 0;

  /// N_f: total recorded accesses of `f` (0 if unknown).
  [[nodiscard]] virtual std::uint64_t access_count(FileId f) const = 0;

  /// F(pred, succ) = N_AB / N_A; 0 when N_A == 0.
  [[nodiscard]] virtual double access_frequency(FileId pred,
                                                FileId succ) const = 0;

  /// Batched evidence for FPA's per-request re-check: out[i] receives
  /// {access_count(b), access_frequency(a, b), semantic_similarity(a, b),
  /// correlation_degree(a, b)} for b = candidates[i].file. `out` must hold
  /// at least candidates.size() entries; entries past that are untouched.
  ///
  /// Contract, every backend: each field equals the matching point query
  /// bit for bit when no ingest runs between this call and those queries.
  /// The default body is exactly those four calls. "sharded" overrides it
  /// with one fused walk over its shards; the durability decorator forwards
  /// to the backend it wraps. "farmer" keeps the default.
  virtual void candidate_evidence(FileId a,
                                  std::span<const Correlator> candidates,
                                  std::span<PairEvidence> out) const {
    assert(out.size() >= candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const FileId b = candidates[i].file;
      out[i] = PairEvidence{access_count(b), access_frequency(a, b),
                            semantic_similarity(a, b),
                            correlation_degree(a, b)};
    }
  }

  /// Counter snapshot; see the MinerStats field contract for which fields
  /// each backend fills.
  [[nodiscard]] virtual MinerStats stats() const = 0;

  /// Writes a durable checkpoint of the full model state into directory
  /// `dir` (created if needed): a versioned, checksummed serialization of
  /// every shard's semantic vectors/signatures, correlation graph, Correlator
  /// Lists, CoMiner counters and the embedded trace dictionary — see
  /// docs/ARCHITECTURE.md "Durable persistence". `load(dir)` restores it.
  /// Throws std::system_error on I/O failure.
  virtual void save(const std::string& dir) = 0;

  /// Restores state previously written by save() — or accumulated in a
  /// `MinerOptions::persist_dir` directory (newest valid checkpoint plus the
  /// WAL tail). Only valid on a miner that has not ingested anything yet;
  /// throws std::logic_error otherwise, std::runtime_error on corrupt or
  /// configuration-incompatible state.
  virtual void load(const std::string& dir) = 0;

  /// Additional memory the miner holds (Table 4 accounting).
  [[nodiscard]] virtual std::size_t footprint_bytes() const = 0;

  /// Stable backend identifier; matches the factory name (miner_factory.hpp).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

}  // namespace farmer
