// Metadata-server prefetching shoot-out: the paper's three contenders (FPA,
// Nexus and no prefetching) on a chosen paper trace, reporting hit ratio,
// prefetch accuracy, pollution and DES response time.
//
//   ./metadata_prefetching [LLNL|INS|RES|HP] [scale]
//
// Both tables list every name the PredictorFactory builds
// (api/predictor_factory.hpp). FARMER_MINER and friends select the mining
// backend behind "fpa" as usual.
#include <iostream>
#include <memory>
#include <string>

#include "analysis/experiment.hpp"
#include "analysis/table.hpp"
#include "api/predictor_factory.hpp"
#include "api/runtime_config.hpp"
#include "prefetch/replay.hpp"
#include "serve/harness.hpp"
#include "trace/generator.hpp"
#include "trace_args.hpp"

int main(int argc, char** argv) {
  using namespace farmer;
  const auto [kind, scale] = trace_args_or_exit(argc, argv, 0.25);

  const RuntimeConfig env = RuntimeConfig::from_env_or_exit();
  // The whole trace as a serving workload (no pretrain, no churn): the
  // zero-latency replay reads its records, the DES replay serves them all.
  ScenarioWorkload wl;
  wl.trace = make_paper_trace(kind, kExperimentSeed, scale);
  const Trace& trace = wl.trace;
  const std::size_t capacity = default_cache_capacity(trace);
  std::cout << "trace " << trace_kind_name(kind) << ": "
            << trace.event_count() << " events, " << trace.file_count()
            << " files, cache " << capacity << " entries\n";

  FarmerConfig fpa_cfg;
  fpa_cfg.attributes = trace.has_paths ? AttributeMask::all_with_path()
                                       : AttributeMask::all_with_fileid();
  const auto build = [&](const std::string& name) {
    return make_predictor(name, fpa_cfg, trace.dict,
                          env.predictor_options());
  };

  ReplayConfig rc;
  rc.cache_capacity = capacity;
  rc.prefetch_degree = kDefaultPrefetchDegree;

  Table table({"algorithm", "hit ratio", "accuracy", "pollution",
               "footprint"});
  for (const std::string& name : registered_predictors()) {
    const auto predictor = build(name);
    const auto r = replay_trace(trace, *predictor, rc);
    table.add_row({name + " (" + predictor->name() + ")",
                   fmt_double(r.hit_ratio() * 100, 2) + "%",
                   fmt_double(r.prefetch_accuracy() * 100, 2) + "%",
                   fmt_double(r.cache.pollution_ratio() * 100, 2) + "%",
                   fmt_bytes(r.predictor_footprint)});
  }
  std::cout << "\nzero-latency replay (policy effects only):\n";
  table.print(std::cout);

  std::cout << "\ndiscrete-event MDS replay (latency effects):\n";
  Table rt({"algorithm", "mean RT", "p95 RT", "prefetch batches"});
  ScenarioSpec spec;
  spec.name = "des";
  spec.windows = 1;
  spec.cache_capacity = capacity;
  for (const std::string& name : registered_predictors()) {
    const auto p = build(name);
    const ServingResult m = serve(spec, wl, *p);
    rt.add_row({name, fmt_double(m.response.mean() / 1000.0, 3) + " ms",
                fmt_double(static_cast<double>(m.response.p95()) / 1000.0, 3) +
                    " ms",
                std::to_string(m.prefetch_batches)});
  }
  rt.print(std::cout);
  return 0;
}
