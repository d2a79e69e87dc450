#include "prefetch/replay.hpp"

namespace farmer {

ReplayResult replay_trace(const Trace& trace, Predictor& predictor,
                          const ReplayConfig& cfg) {
  MetadataCache cache(cfg.cache_capacity);
  PredictionList predictions;
  for (const TraceRecord& rec : trace.records) {
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
  }

  ReplayResult result;
  result.cache = cache.stats();
  result.predictor_footprint = predictor.footprint_bytes();
  return result;
}

}  // namespace farmer
