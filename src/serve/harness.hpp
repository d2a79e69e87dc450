// Closed-loop serving harness.
//
// Replays a ScenarioWorkload against a live MDS under discrete-event time:
// every demand request trains the predictor (learning is in the loop, not
// ahead of it), the predictor's prefetch decisions land in the metadata
// cache through the two-priority disk queue, and the run streams out one
// WindowStats row per reporting window — hit-ratio ramp, prefetch
// precision/waste, response-time percentiles, model footprint — so
// scenario effects show up as a time series instead of one washed-out
// average.
//
//   trace ──▶ arrival chain ──▶ MdsServer ──▶ cache / disk queues
//                 │                 │
//                 │          Predictor.observe / predict
//                 │                 │
//            window clock ──▶ WindowStats rows (api/window_stats.hpp)
//
// `run_scenario` is the whole loop: realise the spec, build the predictor
// by factory name, pretrain / checkpoint-restore when the spec says so,
// serve, report. `serve` is the lower-level entry for callers that bring
// their own predictor instance: the paper's response-time experiments
// (Figs. 6 and 8) replay a whole trace through it — a ScenarioWorkload
// with no pretrain and no churn, one window.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/predictor_factory.hpp"
#include "api/window_stats.hpp"
#include "cache/metadata_cache.hpp"
#include "common/stats.hpp"
#include "prefetch/predictor.hpp"
#include "serve/scenario.hpp"

namespace farmer {

/// One scenario run: the per-window time series plus run totals. The
/// windowed counters sum exactly to the cumulative ones (WindowStats field
/// contract).
struct ServingResult {
  std::string scenario;
  std::string predictor;  ///< Predictor::name() of the serving predictor
  std::vector<WindowStats> windows;
  LatencyHistogram response;  ///< every demand completion, µs
  CacheStats cache;           ///< cumulative over the served span
  std::uint64_t requests = 0;
  std::uint64_t prefetch_batches = 0;
  std::uint64_t duplicate_suppressed = 0;
  std::uint64_t invalidations = 0;
  SimTime sim_duration = 0;
  std::size_t model_footprint_bytes = 0;
  /// Warm-start runs only: the model reached serving through a real
  /// save()/load() checkpoint round-trip (false = not a warm start, or a
  /// predictor without a miner, such as "nexus", warmed in memory).
  bool checkpoint_restored = false;

  [[nodiscard]] double demand_hit_ratio() const noexcept {
    return cache.hit_ratio();
  }
};

/// Serves `wl`'s post-pretrain suffix through `predictor` (whatever state
/// it is in — run_scenario handles warming). Deterministic for a given
/// (spec, wl, predictor state). Throws std::invalid_argument when
/// `spec.validate()` is non-empty.
[[nodiscard]] ServingResult serve(const ScenarioSpec& spec,
                                  const ScenarioWorkload& wl,
                                  Predictor& predictor);

/// The full closed loop: build_workload(spec), construct `predictor_name`
/// through the PredictorFactory, apply the spec's cold/warm-start policy
/// (warm: pretrain on the prefix, checkpoint-restore via the miner's
/// save()/load(); a predictor without a miner keeps its pretrained
/// instance), then serve. Throws std::invalid_argument on a bad spec,
/// unknown predictor or invalid options, and passes on what the miner's
/// construction, save() and load() throw. A warm start whose
/// `opts.miner.persist_dir` already holds a model throws std::logic_error:
/// the serving miner recovered that model, and load() needs an empty one.
[[nodiscard]] ServingResult run_scenario(const ScenarioSpec& spec,
                                         std::string_view predictor_name,
                                         const PredictorOptions& opts = {});

}  // namespace farmer
