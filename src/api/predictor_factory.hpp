// Runtime-selectable prefetch predictors.
//
// `make_predictor("fpa" | "nexus" | "probgraph" | "sdgraph" | "ls" | "fs" |
// "recentpop" | "pbs" | "puls" | "none", cfg, dict, opts)` mirrors the
// MinerFactory registry (api/miner_factory.hpp): benches, examples and the
// serving harness select the prediction policy with a string
// (`FARMER_PREDICTOR=...`) instead of hand-constructing each predictor
// class, and new policies register themselves via `register_predictor`
// without touching any consumer. The CI smoke loop iterates
// `registered_predictors()` so a registration can never miss coverage.
//
// "fpa" is the only predictor that owns a mining backend: it builds its
// CorrelationMiner through the MinerFactory from
// `PredictorOptions::miner_backend` + `PredictorOptions::miner`, so the
// full backend matrix (farmer/sharded/concurrent/router/cluster, with
// persistence, caching and publish knobs) is reachable behind the Predictor
// interface with zero predictor-specific plumbing.
//
// `PredictorOptions` is validated before any predictor is constructed: a
// bad option or an unknown name throws std::invalid_argument naming the
// problem and the registered predictors.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/miner_factory.hpp"
#include "core/config.hpp"
#include "prefetch/predictor.hpp"
#include "trace/record.hpp"

namespace farmer {

/// Predictor knobs that are not FARMER model parameters. Every field has a
/// "default" sentinel (0 / negative) so a default-constructed
/// PredictorOptions reproduces each predictor's own Config defaults
/// exactly — the factory only overrides what the caller set. The README's
/// configuration table documents the FARMER_* environment variables
/// RuntimeConfig maps onto these fields.
struct PredictorOptions {
  /// Mining backend behind "fpa" (any registered MinerFactory name).
  /// Other predictors ignore it. Empty = "farmer".
  std::string miner_backend;
  /// MinerOptions handed to the MinerFactory when building "fpa"'s backend
  /// (shards, ingest threads, persistence, cluster knobs, ...).
  MinerOptions miner;
  /// Look-ahead window for the sequence-mining baselines (nexus, probgraph,
  /// sdgraph). 0 = each predictor's own default; capped at
  /// AccessWindow::kMaxWindow.
  std::size_t window = 0;
  /// Minimum accumulated edge weight before "nexus" prefetches a
  /// successor. Negative = default.
  double min_weight = -1.0;
  /// Minimum estimated P(B|A) before "probgraph" prefetches B. Negative =
  /// default; must end up in [0, 1].
  double min_chance = -1.0;
  /// Minimum successor frequency N_AB/N_A before "sdgraph" prefetches.
  /// Negative = default; must end up in [0, 1].
  double min_frequency = -1.0;
  /// "recentpop" best-j-of-k parameters. 0 = default (k=4, j=2); j must
  /// not exceed k.
  std::size_t recent_k = 0;
  std::size_t recent_j = 0;

  /// Empty string when every constraint holds; otherwise all violations,
  /// "; "-joined (mirroring FarmerConfig::validate).
  [[nodiscard]] std::string validate() const;
};

using PredictorFactoryFn = std::function<std::unique_ptr<Predictor>(
    const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts)>;

/// Adds (or replaces) a predictor under `name`. Returns true when `name`
/// was new. Built-ins "fpa", "nexus", "probgraph", "sdgraph", "ls", "fs",
/// "recentpop", "pbs", "puls" and "none" are pre-registered.
///
/// A registered factory must return predictors honoring the Predictor
/// contracts (prefetch/predictor.hpp): predict() never proposes the
/// demanded file itself; predict_fetchable(), when overridden, appends
/// either exactly predict()'s candidates or nothing when none of them
/// passes the caller's test (the serving loop and replay_trace call it,
/// and their results must not depend on the override); flush() is a real
/// ingest barrier when the predictor mines asynchronously; and
/// footprint_bytes() reports the predictor's actual state so Table-4 and
/// the serving harness's per-window memory column stay honest.
///
/// Thread-safety: registration is NOT synchronized against concurrent
/// make_predictor()/registered_predictors() calls — register predictors at
/// startup, before serving threads exist.
bool register_predictor(const std::string& name, PredictorFactoryFn factory);

/// Registered predictor names, sorted.
[[nodiscard]] std::vector<std::string> registered_predictors();

/// Constructs the predictor registered under `name`. Throws
/// std::invalid_argument on an unknown name, an invalid `cfg` (validated
/// for "fpa", which mines with it) or invalid `opts`. The returned
/// predictor is exclusively owned; for "fpa" it owns its miner, reachable
/// read-only through Predictor::miner().
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts = {});

}  // namespace farmer
