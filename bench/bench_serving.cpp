// Closed-loop serving scenarios (src/serve/): a trace drives a live MDS
// whose predictor is selected at runtime (FARMER_PREDICTOR through the
// PredictorFactory, mining backend through FARMER_MINER), and every
// scenario reports both run totals and the per-window time series.
//
//   bench_serving                       all built-in scenarios, summary table
//   bench_serving --scenario NAME       one scenario + its per-window rows
//   bench_serving --list-scenarios      registered scenario names
//   bench_serving --json                machine-readable (bench_to_json.py)
//
// FARMER_SCENARIO picks the scenario without a flag; FARMER_SERVE_WINDOWS
// and FARMER_SERVE_CACHE override the spec's reporting windows and MDS
// cache capacity. The trace volume follows FARMER_BENCH_SCALE like every
// other bench (scenario scales are tuned for the default 0.25).
#include <algorithm>
#include <cstring>
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
  if (runtime().serve_windows) spec.windows = runtime().serve_windows;
  if (runtime().serve_cache) spec.cache_capacity = runtime().serve_cache;
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
    } else if (arg != "--json") {
      std::cerr << "usage: bench_serving [--scenario NAME] "
                   "[--list-scenarios] [--json]\n";
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
  const bool json = json_output_requested(argc, argv);
  if (only.empty()) only = runtime().scenario;

  const std::vector<std::string> names =
      only.empty() ? registered_scenarios() : std::vector<std::string>{only};
  const std::string& predictor = runtime().predictor;

  if (!json)
    print_experiment_header(
        std::cout, "Serving scenarios",
        "closed-loop trace replay against a live MDS: the " + predictor +
            " predictor learns in the loop while the cache and two-priority "
            "disk queue score its prefetches",
        "hit ratio, prefetch precision and response percentiles react to "
        "the scenario's load shape; ingest lag stays bounded");

  Table summary({"scenario", "predictor", "requests", "demand_hit_ratio",
                 "prefetch_precision", "prefetch_waste", "p50_response_us",
                 "p99_response_us", "mean_ingest_lag", "windows"});
  Table windows_tbl({"window", "end_us", "requests", "hit_ratio",
                     "prefetch_precision", "p50_us", "p99_us", "ingest_lag",
                     "epoch", "footprint_bytes", "invalidations"});

  for (const std::string& name : names) {
    ServingResult res;
    try {
      res = run_scenario(spec_for(name), predictor,
                         runtime().predictor_options());
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    double lag_sum = 0.0;
    for (const WindowStats& w : res.windows)
      lag_sum += static_cast<double>(w.ingest_pending);
    const double mean_lag =
        res.windows.empty()
            ? 0.0
            : lag_sum / static_cast<double>(res.windows.size());
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
                     fmt_double(mean_lag, 1),
                     std::to_string(res.windows.size())});
    if (names.size() == 1) {
      for (const WindowStats& w : res.windows)
        windows_tbl.add_row(
            {std::to_string(w.index), std::to_string(w.end_us),
             std::to_string(w.demand_requests), ratio4(w.hit_ratio()),
             ratio4(w.prefetch_precision()),
             std::to_string(w.p50_response_us),
             std::to_string(w.p99_response_us),
             std::to_string(w.ingest_pending),
             std::to_string(w.ingest_epoch),
             std::to_string(w.model_footprint_bytes),
             std::to_string(w.invalidations)});
    }
  }

  if (json) {
    std::cout << "{\"bench\": \"bench_serving\", \"scale\": " << bench_scale()
              << ", \"predictor\": " << json_quote(predictor)
              << ", \"tables\": [";
    summary.print_json(std::cout, "serving");
    if (names.size() == 1) {
      std::cout << ", ";
      windows_tbl.print_json(std::cout, "serving_windows");
    }
    std::cout << "]}\n";
    return 0;
  }

  summary.print(std::cout);
  if (names.size() == 1) {
    std::cout << "\nPer-window time series (" << names.front() << "):\n\n";
    windows_tbl.print(std::cout);
  }
  return 0;
}
