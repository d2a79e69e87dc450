// Runtime configuration loader: the one place FARMER_* environment
// variables are parsed.
//
// Benches, examples and the serving harness all configure themselves from
// the same environment surface (README "Configuration" table). Before this
// loader each binary hand-rolled its own getenv/strtoul soup; now
// `RuntimeConfig::from_env()` produces validated `MinerOptions`, the
// predictor selection and scenario knobs in one pass, and a malformed
// variable surfaces as a *typed* `ConfigError` naming the variable, the
// raw value and the constraint it violated. So does any other set FARMER_*
// variable, misspelt or retired — a typo can never silently select the
// default.
//
// Consumers that want the classic CLI behavior (print the diagnostic,
// exit 2) call `from_env_or_exit()`; programmatic consumers catch
// `ConfigError`.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "api/miner_factory.hpp"
#include "api/predictor_factory.hpp"

namespace farmer {

/// Typed failure from RuntimeConfig::from_env(): which environment
/// variable, the raw value found, and the constraint it violated.
class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::string var, std::string value, std::string reason)
      : std::runtime_error("invalid " + var + " \"" + value +
                           "\": " + reason),
        var_(std::move(var)),
        value_(std::move(value)),
        reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& var() const noexcept { return var_; }
  [[nodiscard]] const std::string& value() const noexcept { return value_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  std::string var_;
  std::string value_;
  std::string reason_;
};

/// Everything the FARMER_* environment selects, validated. Field defaults
/// are the documented backend defaults, so an empty environment yields the
/// exact configuration every bench ran with before this loader existed.
struct RuntimeConfig {
  /// FARMER_MINER: mining backend name resolved through the MinerFactory.
  std::string miner_backend = "farmer";
  /// FARMER_SHARDS / FARMER_INGEST_THREADS / FARMER_APPLY_THREADS /
  /// FARMER_MAX_PENDING / FARMER_PUBLISH_INTERVAL /
  /// FARMER_PUBLISH_MAX_DELAY_MS / FARMER_PERSIST_DIR /
  /// FARMER_CHECKPOINT_INTERVAL / FARMER_WAL_GROUP_COMMIT — see
  /// MinerOptions field docs.
  MinerOptions miner;
  /// FARMER_PREDICTOR: prefetch policy name resolved through the
  /// PredictorFactory ("fpa", "nexus" or "none").
  std::string predictor = "fpa";
  /// FARMER_SCENARIO: serving-scenario name (serve/scenario.hpp); empty =
  /// the consumer's default.
  std::string scenario;
  /// FARMER_SERVE_WINDOWS: reporting windows per scenario run (0 = the
  /// scenario's own default).
  std::size_t serve_windows = 0;
  /// FARMER_SERVE_CACHE: metadata-cache capacity override for scenario
  /// runs (0 = the scenario's own default).
  std::size_t serve_cache = 0;
  /// FARMER_BENCH_SCALE: fraction of the full synthetic volume the benches
  /// replay, in (0, 1].
  double bench_scale = 0.25;
  /// FARMER_BENCH_FILES: file population for the publish-cost bench table.
  std::size_t bench_files = 100000;
  /// FARMER_TRACE_DIR / FARMER_TRACE_TENANTS / FARMER_TRACE_ROUNDS: the
  /// out-of-core trace pipeline knobs (bench_ingest_throughput).
  std::string trace_dir;
  std::size_t trace_tenants = 2;
  std::size_t trace_rounds = 1;

  /// Parses the process environment. Throws ConfigError on the first
  /// malformed variable, or on a set FARMER_* variable this loader does not
  /// read; unset (or empty) variables keep the documented defaults.
  [[nodiscard]] static RuntimeConfig from_env();

  /// Options for make_predictor(), built from `miner_backend` and `miner`
  /// above, so "fpa" built through the predictor factory mines on the
  /// env-selected backend.
  [[nodiscard]] PredictorOptions predictor_options() const {
    return {miner_backend, miner};
  }

  /// from_env() with the classic CLI contract: on ConfigError, print the
  /// diagnostic to stderr and exit(2) so a typo never silently runs the
  /// default configuration.
  [[nodiscard]] static RuntimeConfig from_env_or_exit();
};

}  // namespace farmer
