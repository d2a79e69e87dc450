#include "prefetch/replay.hpp"

#include <chrono>

namespace farmer {

ReplayResult replay_trace(const Trace& trace, Predictor& predictor,
                          const ReplayConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  MetadataCache cache(cfg.cache_capacity, cfg.policy);
  const std::size_t warmup =
      static_cast<std::size_t>(static_cast<double>(trace.records.size()) *
                               cfg.warmup_fraction);

  PredictionList predictions;
  std::size_t i = 0;
  for (const TraceRecord& rec : trace.records) {
    // Warm-up keeps the resident set but discards the counters, so measured
    // ratios reflect steady state rather than the cold start.
    if (i == warmup && warmup > 0) cache.reset_stats();
    if (!cache.access(rec.file)) cache.insert_demand(rec.file);
    predictor.observe(rec);
    predictions.clear();
    // insert_prefetch() ignores resident files (rec.file is one by now), so
    // only a non-resident candidate can change the cache.
    predictor.predict_fetchable(
        rec, cfg.prefetch_degree,
        [&cache](FileId f) { return !cache.contains(f); }, predictions);
    for (FileId f : predictions) {
      if (f == rec.file) continue;
      cache.insert_prefetch(f);
    }
    ++i;
  }

  ReplayResult result;
  result.cache = cache.stats();
  result.predictor_footprint = predictor.footprint_bytes();
  result.requests = trace.records.size() - warmup;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace farmer
