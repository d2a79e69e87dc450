// Figure 6 — impact of max_strength on average response time (HP trace,
// DES replay of the MDS).
//
// Paper expectation: response time roughly stable for max_strength < 0.4
// and degrading beyond it (too-conservative prefetching stops helping);
// millisecond scale.
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"

int main() {
  using namespace farmer;
  using namespace farmer::bench;

  print_experiment_header(
      std::cout, "Figure 6",
      "average MDS response time vs max_strength (HP trace, DES)",
      "stable plateau below ~0.4, rising toward 1.0 as prefetching turns "
      "off; ~1-1.8 ms band in the paper");

  const ScenarioWorkload wl = des_workload(paper_trace(TraceKind::kHP));
  const Trace& trace = wl.trace;
  const ScenarioSpec spec = des_spec();
  const std::vector<double> strengths = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                         0.6, 0.7, 0.8, 0.9, 1.0};
  struct Cell {
    double strength;
    double mean_ms = 0, p95_ms = 0;
    std::uint64_t batches = 0;
  };
  std::vector<Cell> cells;
  for (const double s : strengths) cells.push_back({s});

  parallel_for(cells.size(), [&](std::size_t i) {
    FarmerConfig cfg = fpa_config(trace);
    cfg.max_strength = cells[i].strength;
    auto fpa = make_fpa(trace, cfg);
    const ServingResult m = serve(spec, wl, fpa);
    cells[i].mean_ms = m.response.mean() / 1000.0;
    cells[i].p95_ms = static_cast<double>(m.response.p95()) / 1000.0;
    cells[i].batches = m.prefetch_batches;
  });

  Table table({"max_strength", "mean RT (ms)", "p95 RT (ms)",
               "prefetch batches"});
  for (const Cell& c : cells)
    table.add_row({fmt_double(c.strength, 1), fmt_double(c.mean_ms, 3),
                   fmt_double(c.p95_ms, 3), std::to_string(c.batches)});
  table.print(std::cout);
  return 0;
}
