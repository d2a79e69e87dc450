// Explore which semantic attributes matter: replays a trace under every
// attribute combination of the paper's Table 5 and prints the resulting
// cache hit ratios side by side with the Figure-1 inter-file access
// probabilities.
//
//   ./attribute_explorer [LLNL|INS|RES|HP] [scale]
#include <cstdlib>
#include <iostream>

#include "analysis/experiment.hpp"
#include "analysis/interfile_prob.hpp"
#include "analysis/table.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/replay.hpp"
#include "trace/generator.hpp"
#include "trace_args.hpp"

int main(int argc, char** argv) {
  using namespace farmer;
  const auto [kind, scale] = trace_args_or_exit(argc, argv, 0.15);

  const Trace trace = make_paper_trace(kind, kExperimentSeed, scale);
  const std::size_t capacity = default_cache_capacity(trace);
  std::cout << "trace " << trace_kind_name(kind) << ", cache " << capacity
            << " entries\n\n";

  // Part 1: inter-file access probability per attribute filter (Fig. 1).
  const auto prob_rows = interfile_access_probability(
      trace, figure1_combinations(trace.has_paths));
  Table probs({"filter", "inter-file access probability", "transitions"});
  for (const auto& r : prob_rows)
    probs.add_row({r.label, fmt_double(r.probability * 100, 1) + "%",
                   std::to_string(r.transitions)});
  std::cout << "successor predictability by attribute filter:\n";
  probs.print(std::cout);

  // Part 2: FPA hit ratio per attribute combination (Table 5).
  ReplayConfig rc;
  rc.cache_capacity = capacity;
  rc.prefetch_degree = kDefaultPrefetchDegree;
  Table hits({"combination", "hit ratio", "accuracy"});
  for (const auto& combo : paper_attribute_combinations(trace.has_paths)) {
    FarmerConfig cfg;
    cfg.attributes = combo.mask;
    cfg.path_mode = PathMode::kIntegrated;
    FpaPredictor fpa(cfg, trace.dict);
    const auto r = replay_trace(trace, fpa, rc);
    hits.add_row({combo.label, fmt_double(r.hit_ratio() * 100, 2) + "%",
                  fmt_double(r.prefetch_accuracy() * 100, 2) + "%"});
  }
  std::cout << "\nFPA hit ratio by attribute combination:\n";
  hits.print(std::cout);
  return 0;
}
