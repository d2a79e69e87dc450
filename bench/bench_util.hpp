// Shared helpers for the reproduction benches.
//
// Every bench regenerates its tables from the same seed and scale so rows
// are comparable across binaries. Traces are cached per process.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/table.hpp"
#include "api/miner_factory.hpp"
#include "api/predictor_factory.hpp"
#include "api/runtime_config.hpp"
#include "core/config.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "prefetch/replay.hpp"
#include "serve/harness.hpp"
#include "trace/generator.hpp"

namespace farmer::bench {

/// The process's FARMER_* environment, parsed once through the public
/// RuntimeConfig loader (api/runtime_config.hpp) — the benches own no env
/// parsing of their own. A malformed variable prints its ConfigError
/// diagnostic and exits 2 (the classic bench contract: a typo never
/// silently benchmarks the default).
inline const RuntimeConfig& runtime() {
  static const RuntimeConfig rc = RuntimeConfig::from_env_or_exit();
  return rc;
}

/// Experiment scale: fraction of the full synthetic volume. Chosen so the
/// whole bench suite completes in minutes on a laptop while keeping every
/// trace large enough for stable ratios. FARMER_BENCH_SCALE overrides it
/// (the CI bench-smoke job runs the suite at a tiny scale).
inline double bench_scale() { return runtime().bench_scale; }

inline const Trace& paper_trace(TraceKind kind) {
  static std::map<TraceKind, Trace> cache;
  auto it = cache.find(kind);
  if (it == cache.end())
    it = cache
             .emplace(kind,
                      make_paper_trace(kind, kExperimentSeed, bench_scale()))
             .first;
  return it->second;
}

inline const TraceKind kAllKinds[] = {TraceKind::kLLNL, TraceKind::kINS,
                                      TraceKind::kRES, TraceKind::kHP};

/// FARMER configuration matched to a trace's attribute availability.
inline FarmerConfig fpa_config(const Trace& trace) {
  FarmerConfig cfg;
  cfg.attributes = trace.has_paths ? AttributeMask::all_with_path()
                                   : AttributeMask::all_with_fileid();
  return cfg;
}

/// Mining backend behind every bench's FPA, selected at runtime:
///   FARMER_MINER=farmer|sharded (default "farmer")
///   FARMER_SHARDS=<n>           (default 4, "sharded")
///   FARMER_APPLY_THREADS=<n>    (default 0 = auto: worker lanes for the
///                                shard-disjoint parallel apply behind
///                                observe_batch on "sharded"; 1 = serial
///                                apply, capped at the shard count,
///                                byte-identical at every setting)
///   FARMER_PERSIST_DIR=<path>   (default off: durable persistence
///                                directory — WAL + checkpoints, recovered
///                                on construction; benches add a per-trace
///                                subdirectory)
///   FARMER_CHECKPOINT_INTERVAL=<n> (default backend = 65536, checkpoint
///                                every n ingested records)
///   FARMER_WAL_GROUP_COMMIT=<n> (default backend = 4096, WAL commit-group
///                                size in records; closed groups fsync on
///                                a background sync thread)
/// so ablations over the backend are a flag, not a recompile. The README's
/// configuration table is the authoritative reference for these knobs;
/// parsing lives in RuntimeConfig.
inline const std::string& miner_backend() { return runtime().miner_backend; }

inline const MinerOptions& miner_options() { return runtime().miner; }

/// True when argv carries `--json`: the bench emits one machine-readable
/// JSON document on stdout (scripts/bench_to_json.py normalizes and
/// validates it into the committed BENCH_*.json baselines) instead of the
/// human tables.
inline bool json_output_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--json") return true;
  return false;
}

/// Miner for the selected backend (validated through the factory). The
/// selection is announced once on stderr so saved bench output records
/// which backend produced it.
inline std::unique_ptr<CorrelationMiner> make_bench_miner(
    const Trace& trace, const FarmerConfig& cfg) {
  MinerOptions opts = miner_options();
  // A persist directory is bound to one trace's dictionary; benches sweep
  // several traces, so each trace gets its own subdirectory.
  if (!opts.persist_dir.empty() && !trace.name.empty())
    opts.persist_dir += "/" + trace.name;
  std::unique_ptr<CorrelationMiner> miner;
  try {
    miner = make_miner(miner_backend(), cfg, trace.dict, opts);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
  static const bool announced = [&] {
    std::cerr << "mining backend: " << miner->name();
    if (std::string_view(miner->name()) == "sharded")
      std::cerr << " (shards=" << opts.shards << ")";
    std::cerr << "\n";
    return true;
  }();
  (void)announced;
  return miner;
}

/// FPA over the selected backend.
inline FpaPredictor make_fpa(const Trace& trace, const FarmerConfig& cfg) {
  return FpaPredictor(make_bench_miner(trace, cfg));
}
inline FpaPredictor make_fpa(const Trace& trace) {
  return make_fpa(trace, fpa_config(trace));
}

/// Predictor for `name` through the PredictorFactory, carrying the
/// environment's miner selection (FARMER_MINER and friends) behind "fpa".
/// Empty `name` = the environment's FARMER_PREDICTOR. Mirrors
/// make_bench_miner's per-trace persistence layout and exit-on-error
/// contract.
inline std::unique_ptr<Predictor> make_bench_predictor(
    const Trace& trace, std::string_view name = {}) {
  if (name.empty()) name = runtime().predictor;
  PredictorOptions opts = runtime().predictor_options();
  if (!opts.miner.persist_dir.empty() && !trace.name.empty())
    opts.miner.persist_dir += "/" + trace.name;
  try {
    return make_predictor(name, fpa_config(trace), trace.dict, opts);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

/// Feeds `records` to `miner` in `chunk`-sized observe_batch() calls, then
/// flushes. Returns wall-clock seconds for ingest+flush.
inline double span_replay(CorrelationMiner& miner,
                          std::span<const TraceRecord> records,
                          std::size_t chunk = 1024) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < records.size(); i += chunk)
    miner.observe_batch(records.subspan(i, std::min(chunk,
                                                    records.size() - i)));
  miner.flush();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

inline ReplayConfig replay_config(const Trace& trace) {
  ReplayConfig rc;
  rc.cache_capacity = default_cache_capacity(trace);
  rc.prefetch_degree = kDefaultPrefetchDegree;
  return rc;
}

/// The paper's DES response-time replay (Figs. 6 and 8, ablation 4) as a
/// serving spec: one reporting window over the whole trace, cache capacity
/// and prefetch degree derived from it, on an MDS with a BDB page cache and
/// two spindles.
inline ScenarioSpec des_spec() {
  ScenarioSpec spec;
  spec.name = "des";
  spec.windows = 1;
  spec.disk_servers = 2;
  return spec;
}

/// `trace` as a serving workload: no pretrain prefix, no churn, so serve()
/// replays every record.
inline ScenarioWorkload des_workload(const Trace& trace) {
  ScenarioWorkload wl;
  wl.trace = trace;
  return wl;
}

inline std::string pct(double ratio, int precision = 2) {
  return fmt_double(ratio * 100.0, precision) + "%";
}

}  // namespace farmer::bench
