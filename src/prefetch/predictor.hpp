// Prefetch predictor interface.
//
// A predictor observes the demand request stream and, after each request,
// proposes files whose metadata should be prefetched. The paper's FPA and
// its two baselines, Nexus and no prefetching at all (plain LRU), implement
// this interface, which keeps the replay engine and the MDS
// policy-agnostic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/function_ref.hpp"
#include "common/small_vector.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace farmer {

class CorrelationMiner;

/// Bounded candidate list, best first.
using PredictionList = SmallVector<FileId, 8>;

class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Ingests one demand request (learning step).
  virtual void observe(const TraceRecord& rec) = 0;

  /// Appends up to `limit` prefetch candidates for the state after `rec`
  /// was observed, best first. Must not propose `rec.file` itself.
  virtual void predict(const TraceRecord& rec, std::size_t limit,
                       PredictionList& out) = 0;

  /// predict() for a caller that fetches only the candidates `fetchable`
  /// accepts (a serving loop skips files already cached or in flight).
  /// Appends either exactly what predict() would, or nothing when none of
  /// that passes `fetchable`, so the fetchable candidates always match
  /// predict()'s in order. Dropping only some unfetchable ones is not
  /// allowed: a caller that inserts candidates one at a time can evict a
  /// resident one before reaching it. `fetchable` must have no side
  /// effects. The default is predict(); FPA overrides it to skip its
  /// evidence re-check when no candidate could cost an I/O. The separate
  /// name keeps a predictor that overrides only predict() clean under
  /// -Woverloaded-virtual.
  virtual void predict_fetchable(const TraceRecord& rec, std::size_t limit,
                                 FunctionRef<bool(FileId)> /*fetchable*/,
                                 PredictionList& out) {
    predict(rec, limit, out);
  }

  /// Ingest barrier: returns once everything observe()d so far can inform
  /// predict(). Only predictors over asynchronous miners (FPA on the
  /// "concurrent" backend) do real work here; live replay deliberately does
  /// NOT call it per record — an async miner predicting from slightly stale
  /// epochs is the modelled behavior. Bulk-load-then-predict callers flush
  /// once after ingest.
  virtual void flush() {}

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Memory the predictor holds (Table 4-style accounting). Every real
  /// predictor must report its actual state — graphs, windows, successor
  /// tables, an owned miner — so the serving harness's per-window memory
  /// column and the Table-4 comparison stay honest. The default 0 is for
  /// genuinely stateless predictors (NoopPredictor) only.
  [[nodiscard]] virtual std::size_t footprint_bytes() const { return 0; }

  /// The mining backend this predictor learns through, when it has one
  /// (FPA); nullptr for self-contained baselines. The serving harness
  /// samples stats()/footprint through it for the per-window ingest-lag /
  /// epoch-staleness columns, and drives save()/load() through it for the
  /// checkpoint-restore scenarios, without knowing the concrete predictor
  /// type. The miner stays owned by the predictor; the pointer is valid
  /// for the predictor's lifetime.
  [[nodiscard]] virtual CorrelationMiner* miner() noexcept { return nullptr; }
  [[nodiscard]] const CorrelationMiner* miner() const noexcept {
    return const_cast<Predictor*>(this)->miner();
  }
};

/// The no-prefetch predictor (the "LRU" configuration of the paper: plain
/// cache replacement with no prefetching at all).
class NoopPredictor final : public Predictor {
 public:
  void observe(const TraceRecord&) override {}
  void predict(const TraceRecord&, std::size_t, PredictionList&) override {}
  [[nodiscard]] const char* name() const noexcept override { return "none"; }
};

}  // namespace farmer
