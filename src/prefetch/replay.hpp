// Cache replay engine.
//
// Replays a trace through (predictor, metadata cache) with zero-latency
// fetches: every demand miss populates the cache immediately and every
// prediction is prefetched immediately. This isolates the *policy* effects
// (hit ratio, prefetch accuracy, pollution) from queueing effects; the DES
// replay through serve() (src/serve/harness.hpp) drives the MDS in
// src/storage and adds the latency dimension for the response-time figures.
#pragma once

#include <functional>
#include <memory>

#include "cache/metadata_cache.hpp"
#include "prefetch/predictor.hpp"
#include "trace/record.hpp"

namespace farmer {

struct ReplayConfig {
  std::size_t cache_capacity = 1024;  ///< LRU metadata-cache entries
  std::size_t prefetch_degree = 4;  ///< max candidates consumed per request
};

struct ReplayResult {
  CacheStats cache;
  std::size_t predictor_footprint = 0;

  [[nodiscard]] double hit_ratio() const noexcept {
    return cache.hit_ratio();
  }
  [[nodiscard]] double prefetch_accuracy() const noexcept {
    return cache.prefetch_accuracy();
  }
};

/// Replays `trace` and returns the resulting metrics. The predictor is
/// mutated (it learns the whole trace).
[[nodiscard]] ReplayResult replay_trace(const Trace& trace,
                                        Predictor& predictor,
                                        const ReplayConfig& cfg);

}  // namespace farmer
