// FARMER-enabled data layout (paper Section 4.2): mine correlations, group
// read-only files, place groups contiguously on OSDs and compare the I/O
// cost model against creation-order scatter.
//
//   ./layout_optimizer [LLNL|INS|RES|HP] [scale] [backend]
#include <cstdlib>
#include <iostream>

#include "analysis/experiment.hpp"
#include "analysis/table.hpp"
#include "api/miner_factory.hpp"
#include "common/stats.hpp"
#include "layout/layout.hpp"
#include "trace/generator.hpp"
#include "trace_args.hpp"

int main(int argc, char** argv) {
  using namespace farmer;
  const auto [kind, scale] = trace_args_or_exit(argc, argv, 0.15);
  const char* backend = argc > 3 ? argv[3] : "farmer";

  const Trace trace = make_paper_trace(kind, kExperimentSeed, scale);
  FarmerConfig cfg;
  cfg.attributes = trace.has_paths ? AttributeMask::all_with_path()
                                   : AttributeMask::all_with_fileid();
  std::unique_ptr<CorrelationMiner> model;
  try {
    model = make_miner(backend, cfg, trace.dict);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  model->observe_batch(trace.records);
  model->flush();  // ingest barrier; no-op on synchronous backends

  GrouperConfig gc;
  const auto groups = build_groups(*model, *trace.dict, gc);
  std::cout << "mined " << groups.groups.size() << " layout groups covering "
            << groups.grouped_files << " of " << trace.file_count()
            << " files (read-only only: " << std::boolalpha
            << gc.read_only_only << ")\n\n";

  LayoutConfig lc;
  const auto scatter = place_scatter(*trace.dict, lc);
  const auto grouped = place_grouped(*trace.dict, groups, lc);
  const auto m_scatter = evaluate_layout(trace, scatter, nullptr, lc);
  const auto m_grouped = evaluate_layout(trace, grouped, &groups, lc);

  Table table({"placement", "seeks", "sequential fraction",
               "mean seek (blocks)", "modelled I/O time"});
  auto row = [&](const char* name, const LayoutMetrics& m) {
    table.add_row({name, std::to_string(m.seeks),
                   fmt_double(m.sequential_fraction() * 100, 2) + "%",
                   fmt_double(m.mean_seek_blocks, 0),
                   fmt_double(m.total_io_ms, 1) + " ms"});
  };
  row("scatter (creation order)", m_scatter);
  row("FARMER groups (contiguous)", m_grouped);
  table.print(std::cout);

  const double speedup = m_scatter.total_io_ms / m_grouped.total_io_ms;
  std::cout << "\nmodelled I/O speedup from correlation-directed layout: "
            << fmt_double(speedup, 2) << "x\n";
  return 0;
}
