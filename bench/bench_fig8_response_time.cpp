// Figure 8 — average metadata response time for LLNL, RES and HP under
// FPA, Nexus and LRU (DES replay of the MDS).
//
// Paper expectation: FPA improves mean response time over Nexus by up to
// ~24% and over LRU by up to ~35%.
#include <memory>

#include "bench_util.hpp"

int main() {
  using namespace farmer;
  using namespace farmer::bench;

  print_experiment_header(
      std::cout, "Figure 8",
      "average MDS response time: FPA vs Nexus vs LRU (DES)",
      "FPA fastest on every trace; up to ~24% over Nexus and ~35% over LRU");

  Table table({"trace", "FPA (ms)", "Nexus (ms)", "LRU (ms)",
               "FPA vs Nexus", "FPA vs LRU"});
  for (const TraceKind kind :
       {TraceKind::kLLNL, TraceKind::kRES, TraceKind::kHP}) {
    const ScenarioWorkload wl = des_workload(paper_trace(kind));
    const ScenarioSpec spec = des_spec();

    // Factory-built contenders ("fpa" mines on the env-selected backend).
    auto run = [&](std::string_view predictor) {
      const auto p = make_bench_predictor(wl.trace, predictor);
      return serve(spec, wl, *p).response.mean() / 1000.0;
    };
    const double fpa = run("fpa");
    const double nexus = run("nexus");
    const double lru = run("none");

    // Signed change of FPA's mean response time: negative = FPA faster.
    const auto change = [fpa](double base) {
      const double d = fpa / base - 1.0;
      return (d >= 0.0 ? "+" : "") + pct(d, 1);
    };
    table.add_row({trace_kind_name(kind), fmt_double(fpa, 3),
                   fmt_double(nexus, 3), fmt_double(lru, 3), change(nexus),
                   change(lru)});
  }
  table.print(std::cout);
  return 0;
}
