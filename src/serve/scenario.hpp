// Declarative serving scenarios.
//
// A ScenarioSpec describes one closed-loop serving experiment as data: which
// workloads arrive, how the arrival rate is shaped over the run, how much
// history the model holds when serving starts, and what perturbs the file
// population mid-run. `build_workload` turns the spec into a deterministic
// ScenarioWorkload — a time-warped trace plus a churn plan — and
// serve/harness.hpp replays it against a live predictor.
//
// Load shapes are monotone timestamp warps over the generated trace: the
// request *content* (files, users, ordering within equal instants) is
// untouched, only the arrival density changes, so two shapes over the same
// (tenants, seed, scale) stress the same model with different queueing.
// Everything is derived from the spec's seed; the same spec always builds
// the bit-identical workload (the determinism tests pin this down).
//
// The built-in scenarios form a fixed table, like the MinerFactory and
// PredictorFactory names: look one up by name (`bench_serving --scenario
// ...`), or build a ScenarioSpec directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "trace/record.hpp"

namespace farmer {

/// How the arrival rate evolves over the serving run.
enum class LoadShape : std::uint8_t {
  kSteady,       ///< the generator's native arrival process
  kDiurnal,      ///< sinusoidal rate: quiet edges, peak 5x the trough mid-run
  kFlashCrowd,   ///< a burst: a quarter of requests in 5% of the span
  kTenantShift,  ///< tenant mix rotates: early tenants drain, late ones ramp
};

/// One serving experiment, as data. Defaults describe a steady
/// single-tenant run; the built-ins override from here.
struct ScenarioSpec {
  std::string name;         ///< registry key (and the bench row label)
  std::string description;  ///< one line for --list-scenarios
  /// Workloads merged into the request stream (one = single tenant).
  std::vector<TraceKind> tenants{TraceKind::kINS};
  std::uint64_t seed = 20080122;  ///< kExperimentSeed
  double scale = 0.15;            ///< trace volume fraction, (0, 1]
  LoadShape shape = LoadShape::kSteady;
  /// Multiplies arrival gaps; < 1 compresses time and raises load.
  double time_scale = 1.0;
  /// Reporting windows the serving span is split into, [1, 1024].
  std::size_t windows = 12;
  /// Leading fraction of the stream that is model history, not served:
  /// cold-start scenarios skip it (the model simply never saw it),
  /// warm-start scenarios pretrain on it before serving the rest.
  double pretrain_fraction = 0.0;
  /// Pretrain on the prefix and carry the model into serving — through a
  /// save()/load() checkpoint round-trip when the mining backend supports
  /// persistence (reusing src/persist/), in memory otherwise. false with
  /// pretrain_fraction > 0 is the cold-start control: same served suffix,
  /// empty model.
  bool warm_start = false;
  /// File-population churn: this many invalidation events, evenly spaced
  /// over the serving span, each dropping a rotating `churn_fraction` of
  /// the file population from the MDS cache (files deleted/recreated under
  /// the server).
  std::size_t churn_events = 0;
  double churn_fraction = 0.0;  ///< of the file population, [0, 1]
  /// MDS overrides; 0 = derive from the trace (default_cache_capacity,
  /// kDefaultPrefetchDegree).
  std::size_t cache_capacity = 0;
  std::size_t prefetch_degree = 0;
  /// MDS disk service slots (spindles / DB threads), >= 1.
  unsigned disk_servers = 1;
  /// One disk I/O per predicted correlator group instead of one per file.
  bool batch_prefetch = true;

  /// Empty string when every constraint holds; otherwise all violations,
  /// "; "-joined (mirroring FarmerConfig::validate).
  [[nodiscard]] std::string validate() const;
};

/// Built-in scenario names, sorted: "churn", "cold_start", "diurnal",
/// "flash_crowd", "smoke", "steady", "tenant_shift" and "warm_start".
[[nodiscard]] std::vector<std::string> registered_scenarios();

/// The spec registered under `name` (by value — callers tweak their copy).
/// Throws std::invalid_argument on an unknown name, listing the registered
/// scenarios.
[[nodiscard]] ScenarioSpec scenario_spec(std::string_view name);

/// One churn event: at simulated trace time `at` (unscaled — the harness
/// applies the spec's time_scale), files [file_lo, file_hi) are invalidated.
struct ChurnEvent {
  SimTime at = 0;
  std::uint32_t file_lo = 0;
  std::uint32_t file_hi = 0;
};

/// A spec, realised: the warped request stream plus the serving plan.
struct ScenarioWorkload {
  Trace trace;  ///< time-warped, re-sorted; dictionary shared as usual
  /// Per-tenant FileId range starts plus end marker (MultiTenantTrace).
  std::vector<std::uint32_t> file_begin;
  /// Records [0, pretrain_records) are history; serving replays the rest.
  std::size_t pretrain_records = 0;
  std::vector<ChurnEvent> churn;  ///< by ascending `at`
};

/// Deterministically realises `spec`. Throws std::invalid_argument when
/// `spec.validate()` is non-empty.
[[nodiscard]] ScenarioWorkload build_workload(const ScenarioSpec& spec);

}  // namespace farmer
