#include "api/runtime_config.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace farmer {
namespace {

// One positive integer in [1, max_value]; unset/empty leaves `out` alone.
// Rejecting 0 is deliberate: every size-shaped option already uses 0 to
// mean "disabled"/"backend default", so an explicit 0 in the environment
// is a contradiction, not a setting.
void parse_size(const char* var, std::size_t& out,
                unsigned long max_value = 4096) {
  const char* s = std::getenv(var);
  if (!s || !*s) return;
  char* end = nullptr;
  errno = 0;
  const unsigned long n = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || n == 0 || errno == ERANGE || n > max_value)
    throw ConfigError(var, s,
                      "expected an integer in [1, " +
                          std::to_string(max_value) + "]");
  out = static_cast<std::size_t>(n);
}

// One fraction in (0, 1]; unset/empty leaves `out` alone.
void parse_fraction(const char* var, double& out) {
  const char* s = std::getenv(var);
  if (!s || !*s) return;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !(v > 0.0) || v > 1.0)
    throw ConfigError(var, s, "expected a fraction in (0, 1]");
  out = v;
}

void parse_string(const char* var, std::string& out) {
  if (const char* s = std::getenv(var); s && *s) out = s;
}

}  // namespace

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig rc;
  parse_string("FARMER_MINER", rc.miner_backend);
  parse_size("FARMER_SHARDS", rc.miner.shards);
  parse_size("FARMER_INGEST_THREADS", rc.miner.ingest_threads);
  parse_size("FARMER_APPLY_THREADS", rc.miner.apply_threads);
  // Capacity knobs get a generous ceiling; 0 stays "disabled"/"default"
  // (parse_size rejects 0, matching the defaults already meaning that).
  parse_size("FARMER_QUERY_CACHE", rc.miner.query_cache_capacity,
             /*max_value=*/1u << 24);
  parse_size("FARMER_MAX_PENDING", rc.miner.max_pending,
             /*max_value=*/1u << 30);
  parse_size("FARMER_PUBLISH_INTERVAL", rc.miner.publish_interval_records,
             /*max_value=*/1u << 30);
  parse_size("FARMER_PUBLISH_MAX_DELAY_MS", rc.miner.publish_max_delay_ms,
             /*max_value=*/60000);
  parse_string("FARMER_PERSIST_DIR", rc.miner.persist_dir);
  parse_size("FARMER_CHECKPOINT_INTERVAL",
             rc.miner.checkpoint_interval_records, /*max_value=*/1u << 30);
  parse_size("FARMER_WAL_GROUP_COMMIT", rc.miner.wal_group_commit,
             /*max_value=*/1u << 30);

  parse_string("FARMER_PREDICTOR", rc.predictor);
  // The predictor options mirror the miner selection so "fpa" built through
  // the predictor factory mines on the env-selected backend.
  rc.predictor_options.miner_backend = rc.miner_backend;
  rc.predictor_options.miner = rc.miner;

  parse_string("FARMER_SCENARIO", rc.scenario);
  parse_size("FARMER_SERVE_WINDOWS", rc.serve_windows, /*max_value=*/4096);
  parse_size("FARMER_SERVE_CACHE", rc.serve_cache, /*max_value=*/1u << 24);

  parse_fraction("FARMER_BENCH_SCALE", rc.bench_scale);
  parse_size("FARMER_BENCH_FILES", rc.bench_files, /*max_value=*/1u << 24);
  parse_string("FARMER_TRACE_DIR", rc.trace_dir);
  parse_size("FARMER_TRACE_TENANTS", rc.trace_tenants, /*max_value=*/4);
  parse_size("FARMER_TRACE_ROUNDS", rc.trace_rounds,
             /*max_value=*/1u << 20);
  return rc;
}

RuntimeConfig RuntimeConfig::from_env_or_exit() {
  try {
    return from_env();
  } catch (const ConfigError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace farmer
