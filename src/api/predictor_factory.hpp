// Runtime-selectable prefetch predictors.
//
// `make_predictor("fpa" | "nexus" | "none", cfg, dict, opts)` mirrors the
// MinerFactory (api/miner_factory.hpp): benches, examples and the serving
// harness select the prediction policy with a string
// (`FARMER_PREDICTOR=...`) instead of hand-constructing each predictor
// class. The three names are the paper's contenders (FPA, Nexus and plain
// LRU); the table is fixed at compile time, and CI's smoke loop iterates
// `registered_predictors()` so every entry keeps coverage.
//
// "fpa" is the only predictor that owns a mining backend: it builds its
// CorrelationMiner through the MinerFactory from
// `PredictorOptions::miner_backend` + `PredictorOptions::miner`, so the
// full backend matrix (farmer/sharded/concurrent, with persistence and
// publish knobs) is reachable behind the Predictor interface with zero
// predictor-specific plumbing. "nexus" runs NexusPredictor's own Config
// defaults; "none" prefetches nothing.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/miner_factory.hpp"
#include "core/config.hpp"
#include "prefetch/predictor.hpp"
#include "trace/record.hpp"

namespace farmer {

/// Predictor knobs that are not FARMER model parameters: the mining
/// backend behind "fpa". The other predictors ignore them.
struct PredictorOptions {
  /// Mining backend behind "fpa" (any registered MinerFactory name).
  /// Empty = "farmer".
  std::string miner_backend;
  /// MinerOptions handed to the MinerFactory when building "fpa"'s backend
  /// (shards, ingest threads, persistence, ...).
  MinerOptions miner;
};

/// Predictor names, sorted: "fpa", "nexus" and "none".
[[nodiscard]] std::vector<std::string> registered_predictors();

/// Constructs the predictor named `name`. Throws std::invalid_argument on
/// an unknown name (listing the registered ones), or, for "fpa", on an
/// invalid `cfg` or an unknown `opts.miner_backend`. The returned predictor
/// is exclusively owned; for "fpa" it owns its miner, reachable read-only
/// through Predictor::miner().
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts = {});

}  // namespace farmer
