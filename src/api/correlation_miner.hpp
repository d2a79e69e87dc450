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
// Queries go through `snapshot()`, which returns an immutable
// `CorrelatorView`: backends whose lists are stable between `observe()`
// calls hand out a zero-copy span, backends that merge on demand (sharded)
// hand out an owning snapshot — either way the caller never observes a
// Correlator List mid-resort. `any_listed()` is the cheap question a
// caller asks before paying for that merge: does any listed Correlator pass
// a test? A merging backend answers it from its per-shard lists in place.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/function_ref.hpp"
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

/// An immutable snapshot of one file's Correlator List.
///
/// Either *borrows* storage owned by the backend (valid until the next
/// non-const call on the miner — the usual query-then-act pattern) or *owns*
/// a merged copy (sharded backends). Move-only: copying an owning view would
/// silently re-point the span at the source's buffer.
///
/// Lifetime contract by backend ("is the view stable across observe()?
/// across flush()?"):
///
///   * "farmer" — borrowed (`owns_storage() == false`). Stable
///     only until the next observe()/observe_batch() on the miner; flush()
///     is a no-op and does not invalidate it. Query-then-act within one
///     thread is safe; holding the view across further ingest is not.
///   * "sharded" — owning merged copy. Stable forever, across any amount of
///     observe()/flush(), and independent of the miner's lifetime.
///
/// When in doubt, check owns_storage(): an owning view never goes stale.
class CorrelatorView {
 public:
  CorrelatorView() = default;
  explicit CorrelatorView(std::span<const Correlator> borrowed)
      : view_(borrowed) {}
  explicit CorrelatorView(std::vector<Correlator> owned)
      : owned_(std::move(owned)), view_(owned_), owns_(true) {}

  // std::vector's move transfers the heap buffer, so the destination's span
  // stays valid; the source is emptied so it cannot alias that buffer.
  CorrelatorView(CorrelatorView&& other) noexcept
      : owned_(std::move(other.owned_)),
        view_(other.view_),
        owns_(other.owns_) {
    other.view_ = {};
    other.owns_ = false;
  }
  CorrelatorView& operator=(CorrelatorView&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      view_ = other.view_;
      owns_ = other.owns_;
      other.view_ = {};
      other.owns_ = false;
    }
    return *this;
  }
  CorrelatorView(const CorrelatorView&) = delete;
  CorrelatorView& operator=(const CorrelatorView&) = delete;

  [[nodiscard]] std::span<const Correlator> entries() const noexcept {
    return view_;
  }
  [[nodiscard]] const Correlator* begin() const noexcept {
    return view_.data();
  }
  [[nodiscard]] const Correlator* end() const noexcept {
    return view_.data() + view_.size();
  }
  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }
  [[nodiscard]] const Correlator& operator[](std::size_t i) const noexcept {
    return view_[i];
  }
  [[nodiscard]] const Correlator& front() const noexcept {
    return view_.front();
  }
  /// True when this view carries its own storage (merged snapshot) —
  /// including an empty one; borrowed views depend on the miner's lifetime.
  [[nodiscard]] bool owns_storage() const noexcept { return owns_; }

  /// Moves the owned storage out (owning views only; borrowed views copy).
  [[nodiscard]] std::vector<Correlator> take() && {
    if (owns_) {
      std::vector<Correlator> out = std::move(owned_);
      view_ = {};
      owns_ = false;
      return out;
    }
    return std::vector<Correlator>(begin(), end());
  }

 private:
  std::vector<Correlator> owned_;
  std::span<const Correlator> view_;
  bool owns_ = false;
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
  /// Invalidates borrowed CorrelatorViews handed out by this miner
  /// (owning views are unaffected — see CorrelatorView).
  virtual void observe(const TraceRecord& rec) = 0;

  /// Ingests a batch. Backends with internal parallelism (sharding) override
  /// this; the default is the serial loop. Same view-invalidation contract
  /// as observe().
  virtual void observe_batch(std::span<const TraceRecord> records) {
    for (const TraceRecord& r : records) observe(r);
  }

  /// Barrier: returns once every record accepted by observe()/observe_batch()
  /// before this call is reflected in queries. Both backends apply records
  /// inside observe(), so it is a no-op for them; instrumenting wrappers
  /// forward it. The durability decorator also fsyncs its WAL, so on return
  /// those records are durable, and throws std::system_error when that
  /// sync fails. flush() never invalidates any CorrelatorView, borrowed or
  /// owning.
  virtual void flush() {}

  /// Immutable snapshot of `f`'s Correlator List, sorted by descending
  /// degree. Every entry passed the backend's validity threshold.
  ///
  /// Lifetime: see the CorrelatorView class comment — borrowed for
  /// "farmer" (stale after the next observe()), owning and
  /// permanently stable for "sharded".
  [[nodiscard]] virtual CorrelatorView snapshot(FileId f) const = 0;

  /// Does some Correlator listed for `f` pass `test`? A false answer
  /// certifies that no entry of snapshot(f) passes `test`, when no ingest
  /// runs between the two calls; a true answer promises nothing about the
  /// snapshot. The default body scans snapshot(f), so it answers exactly.
  /// A backend whose snapshot() merges per-shard lists should override it
  /// with a scan of those lists in place: the merged list is a subset of
  /// their union, so a false answer still holds, and a true one may come
  /// from an entry the merge dedupes or cuts at capacity. "sharded" does
  /// that; the durability decorator forwards; "farmer" keeps the default —
  /// its snapshot is a borrowed span. `test` must have no side effects.
  [[nodiscard]] virtual bool any_listed(FileId f,
                                        FunctionRef<bool(FileId)> test) const {
    for (const Correlator& c : snapshot(f))
      if (test(c.file)) return true;
    return false;
  }

  /// Materialized Correlator List (convenience over snapshot()). Owning
  /// snapshots are moved out, not re-copied.
  [[nodiscard]] std::vector<Correlator> correlators(FileId f) const {
    return snapshot(f).take();
  }

  /// R(a, b) under the current state (evaluation-only; no list updates).
  [[nodiscard]] virtual double correlation_degree(FileId a, FileId b) const = 0;

  /// Raw semantic distance sim(a, b); 0 for sequence-only backends or when
  /// either file has no recorded context yet.
  [[nodiscard]] virtual double semantic_similarity(FileId /*a*/,
                                                   FileId /*b*/) const {
    return 0.0;
  }

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
  /// Backends without persistence support throw std::logic_error (the
  /// default).
  virtual void save(const std::string& dir) {
    (void)dir;
    throw std::logic_error(std::string(name()) +
                           ": save() not supported by this backend");
  }

  /// Restores state previously written by save() — or accumulated in a
  /// `MinerOptions::persist_dir` directory (newest valid checkpoint plus the
  /// WAL tail). Only valid on a miner that has not ingested anything yet;
  /// throws std::logic_error otherwise, std::runtime_error on corrupt or
  /// configuration-incompatible state. Backends without persistence support
  /// throw std::logic_error (the default).
  virtual void load(const std::string& dir) {
    (void)dir;
    throw std::logic_error(std::string(name()) +
                           ": load() not supported by this backend");
  }

  /// Additional memory the miner holds (Table 4 accounting).
  [[nodiscard]] virtual std::size_t footprint_bytes() const = 0;

  /// Stable backend identifier; matches the factory name (miner_factory.hpp).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

}  // namespace farmer
