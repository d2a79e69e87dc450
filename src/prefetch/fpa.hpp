// FPA — the FARMER-enabled Prefetching Algorithm (Section 4.1 / 5).
//
// FPA consults the Correlator List of the file just accessed: every entry
// already passed the validity threshold (max_strength), so predictions are
// the strongest correlated successors in degree order. The threshold is what
// separates FPA from aggressive sequence-only prefetchers — "successors that
// are not up to the mustard will not be prefetched".
//
// FPA binds to the CorrelationMiner interface, not a concrete model: either
// factory backend (serial or sharded) drives it unchanged.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "api/correlation_miner.hpp"
#include "core/farmer.hpp"
#include "prefetch/predictor.hpp"

namespace farmer {

class FpaPredictor final : public Predictor {
 public:
  /// Successor frequency below which the sequence evidence alone is too
  /// thin to justify an I/O.
  static constexpr double kMinReliableFrequency = 0.02;
  /// Current-context similarity that rehabilitates a low-frequency
  /// candidate (e.g., a per-client file matched by host/user).
  static constexpr double kMinReferenceSimilarity = 0.25;

  /// Runs FPA on any mining backend (see api/miner_factory.hpp).
  explicit FpaPredictor(std::unique_ptr<CorrelationMiner> miner)
      : miner_(std::move(miner)) {}

  /// Convenience: FPA over a serial FARMER model.
  FpaPredictor(FarmerConfig cfg, std::shared_ptr<const TraceDictionary> dict)
      : FpaPredictor(std::make_unique<Farmer>(cfg, std::move(dict))) {}

  void observe(const TraceRecord& rec) override { miner_->observe(rec); }

  /// Ingest barrier of the underlying miner (a no-op on both backends,
  /// which mine inside observe()); forwarded so a wrapping miner keeps it.
  void flush() override { miner_->flush(); }

  void predict(const TraceRecord& rec, std::size_t limit,
               PredictionList& out) override {
    rank(rec, miner_->snapshot(rec.file), limit, out);
  }

  /// The residency gate: in a serving loop most requests find every listed
  /// Correlator already cached or in flight, and then no ranking could
  /// change what the caller fetches. Skipping it there saves the
  /// per-candidate evidence pass; otherwise this is predict() unchanged.
  /// any_listed() answers first, so a sharded miner merges its lists only
  /// when some shard lists a fetchable file. The snapshot is re-checked
  /// because that file may be one the merge cut at capacity.
  void predict_fetchable(const TraceRecord& rec, std::size_t limit,
                         FunctionRef<bool(FileId)> fetchable,
                         PredictionList& out) override {
    const auto wanted = [&](FileId f) {
      return f != rec.file && fetchable(f);
    };
    if (!miner_->any_listed(rec.file, wanted)) return;
    const CorrelatorView list = miner_->snapshot(rec.file);
    const bool any_fetchable =
        std::any_of(list.begin(), list.end(),
                    [&](const Correlator& c) { return wanted(c.file); });
    if (any_fetchable) rank(rec, list, limit, out);
  }

  [[nodiscard]] const char* name() const noexcept override { return "FPA"; }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return sizeof(*this) + miner_->footprint_bytes();
  }
  [[nodiscard]] const CorrelationMiner& model() const noexcept {
    return *miner_;
  }
  [[nodiscard]] CorrelationMiner* miner() noexcept override {
    return miner_.get();
  }

 private:
  /// FPA's one ranking path, shared by predict() and predict_fetchable().
  void rank(const TraceRecord& rec, const CorrelatorView& list,
            std::size_t limit, PredictionList& out) const {
    if (list.empty() || limit == 0) return;
    // Re-rank the (tiny) list against the *current* request context: the
    // stored degree reflects the context at mining time, but prefetching
    // serves this request — candidates whose semantic vectors match the
    // requester (same user/process/host) move up. This is the "evaluation
    // reference" part of the model: mining is historical, reference is
    // current. One batched query fetches every candidate's evidence, so a
    // sharded miner walks its shards once per request, not four times per
    // candidate.
    SmallVector<PairEvidence, 8> evidence;
    evidence.resize(list.size());
    miner_->candidate_evidence(
        rec.file, list.entries(),
        std::span<PairEvidence>(evidence.data(), evidence.size()));
    struct Ranked {
      FileId file;
      double degree;
    };
    SmallVector<Ranked, 8> ranked;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Correlator& c = list[i];
      const PairEvidence& e = evidence[i];
      if (c.file == rec.file) continue;
      // A candidate seen only once has demonstrated no *exploitable*
      // correlation yet (Section 3.2.4's validity argument): prefetching
      // one-shot files — freshly created checkpoints, temporaries — is
      // pure pollution, so they are skipped until they recur.
      if (e.access_count < 2) continue;
      // Reference validity: the mined degree reflects the context at mining
      // time; before spending an I/O the candidate must still look related
      // — either its successor *frequency* is established, or its semantic
      // vector matches the current requester. Entries failing both are
      // stale (old jobs' files whose context has moved on).
      if (e.frequency < kMinReliableFrequency &&
          e.similarity < kMinReferenceSimilarity)
        continue;
      // Blend mined degree with the current-reference degree so recurring
      // pairs are not discarded merely because contexts drifted.
      ranked.push_back(
          {c.file, 0.5 * static_cast<double>(c.degree) + 0.5 * e.degree});
    }
    std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                               const Ranked& b) {
      if (a.degree != b.degree) return a.degree > b.degree;
      return a.file < b.file;
    });
    for (const Ranked& r : ranked) {
      if (out.size() >= limit) break;
      out.push_back(r.file);
    }
  }

  std::unique_ptr<CorrelationMiner> miner_;
};

}  // namespace farmer
