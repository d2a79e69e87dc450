// Generate, persist, reload and summarise synthetic traces.
//
//   ./trace_inspector [LLNL|INS|RES|HP] [scale] [output.bin]
#include <iostream>
#include <set>
#include <unordered_map>

#include "analysis/table.hpp"
#include "common/stats.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "trace_args.hpp"

int main(int argc, char** argv) {
  using namespace farmer;
  const auto [kind, scale] = trace_args_or_exit(argc, argv, 0.1);
  const std::string out = argc > 3 ? argv[3] : "";

  const Trace trace = make_paper_trace(kind, 20080122, scale);

  std::set<std::uint32_t> users, procs, hosts, groups;
  std::unordered_map<std::uint32_t, std::uint64_t> per_file;
  for (const auto& r : trace.records) {
    users.insert(r.user_token.value());
    procs.insert(r.process_token.value());
    hosts.insert(r.host_token.value());
    ++per_file[r.file.value()];
  }
  for (const auto& f : trace.dict->files)
    if (f.group != kNoGroup) groups.insert(f.group);

  Table t({"property", "value"});
  t.add_row({"trace", trace.name});
  t.add_row({"events", std::to_string(trace.event_count())});
  t.add_row({"files", std::to_string(trace.file_count())});
  t.add_row({"files touched", std::to_string(per_file.size())});
  t.add_row({"distinct users", std::to_string(users.size())});
  t.add_row({"distinct processes", std::to_string(procs.size())});
  t.add_row({"distinct hosts", std::to_string(hosts.size())});
  t.add_row({"correlation groups", std::to_string(groups.size())});
  t.add_row({"duration", fmt_double(to_ms(trace.duration()) / 1000.0, 1) +
                             " s (simulated)"});
  t.add_row({"has paths", trace.has_paths ? "yes" : "no"});
  t.print(std::cout);

  std::cout << "\nfirst records:\n";
  write_trace_tsv(trace, std::cout, 10);

  if (!out.empty()) {
    write_trace_binary(trace, out);
    const Trace reloaded = read_trace_binary(out);
    std::cout << "\nwrote + reloaded " << out << ": "
              << reloaded.event_count() << " events, round-trip "
              << (reloaded.event_count() == trace.event_count() ? "OK"
                                                                : "MISMATCH")
              << "\n";
  }
  return 0;
}
