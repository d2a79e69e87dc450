#include "api/runtime_config.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <vector>

extern char** environ;  // POSIX: the process environment

namespace farmer {
namespace {

/// Reads FARMER_* variables and remembers every name it was asked for, so
/// the calls in from_env() are both the parse and the list of accepted
/// names that reject_unread() checks the environment against.
class EnvReader {
 public:
  // One positive integer in [1, max_value]; unset/empty leaves `out` alone.
  // Rejecting 0 is deliberate: every size-shaped option already uses 0 to
  // mean "disabled"/"backend default", so an explicit 0 in the environment
  // is a contradiction, not a setting.
  void size(const char* var, std::size_t& out,
            unsigned long max_value = 4096) {
    const char* s = get(var);
    if (!s) return;
    char* end = nullptr;
    errno = 0;
    const unsigned long n = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0' || n == 0 || errno == ERANGE ||
        n > max_value)
      throw ConfigError(var, s,
                        "expected an integer in [1, " +
                            std::to_string(max_value) + "]");
    out = static_cast<std::size_t>(n);
  }

  // One fraction in (0, 1]; unset/empty leaves `out` alone.
  void fraction(const char* var, double& out) {
    const char* s = get(var);
    if (!s) return;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !(v > 0.0) || v > 1.0)
      throw ConfigError(var, s, "expected a fraction in (0, 1]");
    out = v;
  }

  void string(const char* var, std::string& out) {
    if (const char* s = get(var)) out = s;
  }

  /// Throws ConfigError for the first set FARMER_* variable that no call
  /// above asked for: a misspelt or retired knob must not run the defaults.
  void reject_unread() const {
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string_view entry(*e);
      const std::size_t eq = entry.find('=');
      if (!entry.starts_with("FARMER_") || eq == std::string_view::npos ||
          eq + 1 == entry.size())
        continue;  // not ours, or empty: unset and empty mean the same
      const std::string_view name = entry.substr(0, eq);
      if (std::find(read_.begin(), read_.end(), name) == read_.end())
        throw ConfigError(std::string(name), std::string(entry.substr(eq + 1)),
                          "not a configuration variable (the README's "
                          "configuration table lists them)");
    }
  }

 private:
  const char* get(const char* var) {
    read_.push_back(var);
    const char* s = std::getenv(var);
    return s && *s ? s : nullptr;
  }

  std::vector<std::string_view> read_;
};

}  // namespace

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig rc;
  EnvReader env;
  env.string("FARMER_MINER", rc.miner_backend);
  env.size("FARMER_SHARDS", rc.miner.shards);
  env.size("FARMER_INGEST_THREADS", rc.miner.ingest_threads);
  env.size("FARMER_APPLY_THREADS", rc.miner.apply_threads);
  // Capacity knobs get a generous ceiling; 0 stays "disabled"/"default"
  // (size() rejects 0, matching the defaults already meaning that).
  env.size("FARMER_MAX_PENDING", rc.miner.max_pending,
           /*max_value=*/1u << 30);
  env.size("FARMER_PUBLISH_INTERVAL", rc.miner.publish_interval_records,
           /*max_value=*/1u << 30);
  env.size("FARMER_PUBLISH_MAX_DELAY_MS", rc.miner.publish_max_delay_ms,
           /*max_value=*/60000);
  env.string("FARMER_PERSIST_DIR", rc.miner.persist_dir);
  env.size("FARMER_CHECKPOINT_INTERVAL", rc.miner.checkpoint_interval_records,
           /*max_value=*/1u << 30);
  env.size("FARMER_WAL_GROUP_COMMIT", rc.miner.wal_group_commit,
           /*max_value=*/1u << 30);

  env.string("FARMER_PREDICTOR", rc.predictor);

  env.string("FARMER_SCENARIO", rc.scenario);
  env.size("FARMER_SERVE_WINDOWS", rc.serve_windows, /*max_value=*/4096);
  env.size("FARMER_SERVE_CACHE", rc.serve_cache, /*max_value=*/1u << 24);

  env.fraction("FARMER_BENCH_SCALE", rc.bench_scale);
  env.size("FARMER_BENCH_FILES", rc.bench_files, /*max_value=*/1u << 24);
  env.string("FARMER_TRACE_DIR", rc.trace_dir);
  env.size("FARMER_TRACE_TENANTS", rc.trace_tenants, /*max_value=*/4);
  env.size("FARMER_TRACE_ROUNDS", rc.trace_rounds, /*max_value=*/1u << 20);
  env.reject_unread();
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
