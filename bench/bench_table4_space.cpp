// Table 4 — FARMER's additional memory footprint per trace at
// max_strength = 0.4.
//
// Paper expectation: footprints stay modest (<100 MB) with the ordering
// LLNL (98.4 MB) >> HP (9.8) > RES (2.5) > INS (1.4): the footprint tracks
// the namespace size, and the validity threshold keeps Correlator Lists
// short.
//
// A second table splits each footprint by structure (MinerStats::footprint,
// plus FPA's own object in "index + fixed"); its parts sum to the footprint
// byte for byte.
#include "bench_util.hpp"

int main() {
  using namespace farmer;
  using namespace farmer::bench;

  print_experiment_header(
      std::cout, "Table 4",
      "FARMER space overhead after mining each full trace "
      "(max_strength = 0.4)",
      "ordering LLNL >> HP > RES > INS; every value well under 100 MB "
      "(paper: 98.4 / 9.8 / 2.5 / 1.4 MB)");

  Table table({"trace", "files", "events", "footprint (measured)",
               "paper (full-size trace)", "bytes/file"});
  Table split({"trace", "blocks", "successor heap", "list heap",
               "signature heap", "index + fixed", "footprint (B)"});
  const char* paper_values[] = {"98.4 MB", "1.4 MB", "2.5 MB", "9.8 MB"};
  std::size_t i = 0;
  for (const TraceKind kind : kAllKinds) {
    const Trace& trace = paper_trace(kind);
    auto fpa = make_fpa(trace);
    for (const auto& rec : trace.records) fpa.observe(rec);
    const std::size_t bytes = fpa.footprint_bytes();
    FootprintBreakdown parts = fpa.miner()->stats().footprint;
    parts.index += bytes - fpa.miner()->footprint_bytes();  // FPA's object
    split.add_row({trace_kind_name(kind), std::to_string(parts.blocks),
                   std::to_string(parts.successor_heap),
                   std::to_string(parts.list_heap),
                   std::to_string(parts.signature_heap),
                   std::to_string(parts.index), std::to_string(bytes)});
    table.add_row(
        {trace_kind_name(kind), std::to_string(trace.file_count()),
         std::to_string(trace.event_count()), fmt_bytes(bytes),
         paper_values[i++],
         fmt_double(static_cast<double>(bytes) /
                        static_cast<double>(trace.file_count()),
                    1)});
  }
  table.print(std::cout);
  std::cout << "\nFootprint by structure, in bytes:\n";
  split.print(std::cout);
  std::cout << "\nNote: absolute sizes scale with the synthetic trace "
               "volume (" << fmt_double(bench::bench_scale(), 2)
            << "x of the generator's full size); the ordering and the "
               "bytes-per-file density are the reproducible shape.\n";
  return 0;
}
