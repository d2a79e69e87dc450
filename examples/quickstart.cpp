// Quickstart: mine file correlations from a synthetic workload and inspect
// the Correlator Lists FARMER produces.
//
//   ./quickstart [seed] [backend]
//   ./quickstart --list-backends     # registered miner names, one/line
//   ./quickstart --list-predictors   # registered predictor names, one/line
//
// Walks through the full public API surface in ~60 lines: generate a trace,
// set a configuration, construct a mining backend through the validating
// factory, ingest the stream, query correlations. The --list flags print
// the factory registries so scripts (CI's smoke loops) can exercise every
// backend and predictor without hand-maintaining the lists. A seed that is
// not a decimal integer, or any other `--` flag, is a usage error: it is
// reported on stderr with exit status 2 instead of running seed 0.
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "analysis/table.hpp"
#include "api/miner_factory.hpp"
#include "api/predictor_factory.hpp"
#include "common/stats.hpp"
#include "trace/generator.hpp"

namespace {

[[noreturn]] void usage_error(const char* program, const char* what,
                              const char* arg) {
  std::cerr << program << ": " << what << ": \"" << arg << "\"\nusage: "
            << program
            << " [seed] [backend] | --list-backends | --list-predictors\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace farmer;
  if (argc > 1 && std::strcmp(argv[1], "--list-backends") == 0) {
    for (const std::string& name : registered_miners())
      std::cout << name << "\n";
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "--list-predictors") == 0) {
    for (const std::string& name : registered_predictors())
      std::cout << name << "\n";
    return 0;
  }
  std::uint64_t seed = 7;
  if (argc > 1) {
    if (std::strncmp(argv[1], "--", 2) == 0)
      usage_error(argv[0], "unknown option", argv[1]);
    // strtoull alone would skip whitespace, negate a '-' and read "abc"
    // as 0; a seed is digits only, and must fit in 64 bits.
    char* end = nullptr;
    errno = 0;
    seed = std::strtoull(argv[1], &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(argv[1][0])) ||
        *end != '\0' || errno == ERANGE)
      usage_error(argv[0], "seed is not a 64-bit decimal integer", argv[1]);
  }
  const char* backend = argc > 2 ? argv[2] : "farmer";

  // 1. A workload: the HP-style time-sharing trace at 5% scale.
  const Trace trace = make_paper_trace(TraceKind::kHP, seed, 0.05);
  std::cout << "trace: " << trace.name << ", " << trace.event_count()
            << " events over " << trace.file_count() << " files\n";

  // 2. A configuration. Defaults follow the paper: p = 0.7,
  //    max_strength = 0.4, IPA path handling, all four attributes.
  const FarmerConfig cfg{.p = 0.7, .max_strength = 0.4, .window = 4};

  // 3. The model, chosen at runtime: "farmer" (serial) or "sharded"
  //    (streams partitioned by process, applied in parallel). The factory
  //    validates the configuration and throws std::invalid_argument naming
  //    every out-of-range parameter instead of mining garbage.
  std::unique_ptr<CorrelationMiner> model;
  try {
    model = make_miner(backend, cfg, trace.dict);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  // 4. Ingest: each request runs the four-stage pipeline (extract,
  //    construct, mine & evaluate, sort) before observe_batch() returns.
  model->observe_batch(trace.records);

  const MinerStats stats = model->stats();
  std::cout << "backend: " << model->name() << ", requests: "
            << stats.requests
            << ", pairs evaluated: " << stats.pairs_evaluated
            << ", accepted: " << stats.pairs_accepted << " ("
            << fmt_double(stats.acceptance_rate() * 100, 1)
            << "%), footprint: " << fmt_bytes(model->footprint_bytes())
            << "\n\n";

  // 5. Query: show the strongest Correlator Lists via immutable snapshots.
  Table table({"file", "correlated file", "degree", "same dir"});
  const TraceDictionary& dict = *trace.dict;
  std::size_t shown = 0;
  for (std::uint32_t f = 0; f < trace.file_count() && shown < 12; ++f) {
    const CorrelatorView list = model->snapshot(FileId(f));
    if (list.size() < 2) continue;
    for (const Correlator& c : list) {
      const auto& fa = dict.files[f];
      const auto& fb = dict.files[c.file.value()];
      table.add_row({dict.path_string(fa.path),
                     dict.path_string(fb.path), fmt_double(c.degree, 3),
                     fa.group == fb.group ? "yes" : "no"});
    }
    ++shown;
  }
  table.print(std::cout);
  return 0;
}
