// Closed-loop serving scenarios (src/serve/): a trace drives a live MDS
// whose predictor is selected at runtime (FARMER_PREDICTOR through the
// PredictorFactory, mining backend through FARMER_MINER), and every
// scenario reports both run totals and the per-window time series.
//
//   bench_serving                       all built-in scenarios, summary table
//   bench_serving --scenario NAME       one scenario + its per-window rows
//   bench_serving --list-scenarios      registered scenario names
//
// Each scenario's spec fixes its reporting windows and MDS cache capacity.
// The trace volume follows FARMER_BENCH_SCALE like every other bench
// (scenario scales are tuned for the default 0.25). Under
// FARMER_PERSIST_DIR each scenario persists into <dir>/<scenario>. Any
// error a scenario raises is printed and exits 2 — among them a warm start
// over a directory an earlier run already filled.
#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/harness.hpp"
#include "serve/scenario.hpp"

namespace {

using namespace farmer;
using namespace farmer::bench;

std::string ratio4(double r) { return fmt_double(r, 4); }

ScenarioSpec spec_for(const std::string& name) {
  ScenarioSpec spec = scenario_spec(name);
  // Scenario scales are tuned for the default bench scale; FARMER_BENCH_SCALE
  // shrinks or grows them proportionally (CI smoke runs tiny).
  spec.scale = std::min(1.0, spec.scale * bench_scale() / 0.25);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-scenarios") {
      list = true;
    } else if (arg == "--scenario" && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::cerr << "usage: bench_serving [--scenario NAME] "
                   "[--list-scenarios]\n";
      return 2;
    }
  }
  if (list) {
    for (const std::string& name : registered_scenarios()) {
      const ScenarioSpec s = scenario_spec(name);
      std::cout << name << "  " << s.description << "\n";
    }
    return 0;
  }
  const std::vector<std::string> names =
      only.empty() ? registered_scenarios() : std::vector<std::string>{only};
  const std::string& predictor = runtime().predictor;

  print_experiment_header(
      std::cout, "Serving scenarios",
      "closed-loop trace replay against a live MDS: the " + predictor +
          " predictor learns in the loop while the cache and two-priority "
          "disk queue score its prefetches",
      "hit ratio, prefetch precision and response percentiles react to "
      "the scenario's load shape");

  Table summary({"scenario", "predictor", "requests", "demand_hit_ratio",
                 "prefetch_precision", "prefetch_waste", "p50_response_us",
                 "p99_response_us", "windows"});
  Table windows_tbl({"window", "end_us", "requests", "hit_ratio",
                     "prefetch_precision", "p50_us", "p99_us",
                     "footprint_bytes", "invalidations"});

  for (const std::string& name : names) {
    // One persist directory per scenario, as make_bench_predictor gives
    // one per trace: each is bound to its own trace and configuration.
    PredictorOptions opts = runtime().predictor_options();
    if (!opts.miner.persist_dir.empty()) opts.miner.persist_dir += "/" + name;
    ServingResult res;
    try {
      res = run_scenario(spec_for(name), predictor, opts);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    const CacheStats& c = res.cache;
    const double precision =
        c.prefetch_inserted ? static_cast<double>(c.prefetch_used) /
                                  static_cast<double>(c.prefetch_inserted)
                            : 0.0;
    summary.add_row({res.scenario, res.predictor,
                     std::to_string(res.requests),
                     ratio4(res.demand_hit_ratio()), ratio4(precision),
                     ratio4(c.pollution_ratio()),
                     std::to_string(res.response.p50()),
                     std::to_string(res.response.p99()),
                     std::to_string(res.windows.size())});
    if (names.size() == 1) {
      for (const WindowStats& w : res.windows)
        windows_tbl.add_row(
            {std::to_string(w.index), std::to_string(w.end_us),
             std::to_string(w.demand_requests), ratio4(w.hit_ratio()),
             ratio4(w.prefetch_precision()),
             std::to_string(w.p50_response_us),
             std::to_string(w.p99_response_us),
             std::to_string(w.model_footprint_bytes),
             std::to_string(w.invalidations)});
    }
  }

  summary.print(std::cout);
  if (names.size() == 1) {
    std::cout << "\nPer-window time series (" << names.front() << "):\n\n";
    windows_tbl.print(std::cout);
  }
  return 0;
}
