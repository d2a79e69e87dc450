// Per-window serving metrics — the third leg of the stats contract.
//
// MinerStats (api/correlation_miner.hpp) accounts the mining side and
// CacheStats (cache/metadata_cache.hpp) the cache side, both cumulatively.
// WindowStats is the *streaming* snapshot the serving harness
// (serve/harness.hpp) emits once per reporting window, so a scenario run
// reads as a time series: hit-ratio ramp after a cold start, precision
// collapse under a flash crowd, model growth as the predictor learns.
//
// Field contract (ServingWindowContract tests pin this down):
//
//   * Counters (`demand_*`, `prefetch_*`, `responses`, `invalidations`)
//     cover THIS window only — the difference of the underlying cumulative
//     counters between the window's close and open. Summing a counter over
//     all windows of a run reproduces the run's cumulative total exactly.
//   * Demand counters bin by *arrival* time; response-time fields bin by
//     *completion* time (a request arriving in window i whose fetch
//     completes in window i+1 counts demand in i, latency in i+1).
//     Completions after the final boundary fold into the last window.
//   * The gauge `model_footprint_bytes` is sampled at the window's CLOSE.
//   * Ratios are safe on empty windows: 0 denominator yields 0.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace farmer {

struct WindowStats {
  std::size_t index = 0;     ///< window ordinal, 0-based
  SimTime begin_us = 0;      ///< window open, simulated µs
  SimTime end_us = 0;        ///< window close (last window: run end)

  std::uint64_t demand_requests = 0;  ///< demand arrivals in the window
  std::uint64_t demand_hits = 0;      ///< of which served from cache
  std::uint64_t prefetch_inserted = 0;
  std::uint64_t prefetch_used = 0;    ///< prefetches that served a hit
  std::uint64_t prefetch_evicted_unused = 0;  ///< pure pollution
  std::uint64_t invalidations = 0;    ///< files hit by churn invalidation

  std::uint64_t responses = 0;        ///< demand completions binned here
  double mean_response_us = 0.0;
  std::uint64_t p50_response_us = 0;
  std::uint64_t p95_response_us = 0;
  std::uint64_t p99_response_us = 0;

  std::size_t model_footprint_bytes = 0;  ///< predictor state at close

  [[nodiscard]] double hit_ratio() const noexcept {
    return demand_requests ? static_cast<double>(demand_hits) /
                                 static_cast<double>(demand_requests)
                           : 0.0;
  }
  /// Of the prefetches inserted this window, the fraction that served a
  /// demand hit — the paper's prefetch-accuracy metric, windowed.
  [[nodiscard]] double prefetch_precision() const noexcept {
    return prefetch_inserted ? static_cast<double>(prefetch_used) /
                                   static_cast<double>(prefetch_inserted)
                             : 0.0;
  }
};

}  // namespace farmer
