// Runtime-selectable mining backends.
//
// `make_miner("farmer" | "sharded", cfg, dict, opts)` turns
// the backend choice into data: benches flip ablations (Table 2/3, Fig.
// 3/6) with a string flag instead of a recompiled type. The table of
// backends is fixed at compile time; a new backend is one more entry in it
// (see docs/ARCHITECTURE.md, "Adding a backend").
//
// The configuration is validated (FarmerConfig::validate) before any
// backend is constructed; a bad config or an unknown backend name throws
// std::invalid_argument naming the problem and the registered backends.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/correlation_miner.hpp"
#include "core/config.hpp"
#include "trace/record.hpp"

namespace farmer {

/// Backend knobs that are not model parameters. The README's configuration
/// table documents every field alongside its FARMER_* environment variable.
struct MinerOptions {
  std::size_t shards = 4;  ///< partitions for "sharded"
  /// Worker lanes for the shard-disjoint parallel apply behind
  /// observe_batch() on "sharded". 0 = auto (hardware parallelism), 1 =
  /// serial apply; more lanes than shards are capped at the shard count.
  /// Every setting produces byte-identical models: shard slices preserve
  /// per-shard record order and shards share no mutable state.
  /// Env: FARMER_APPLY_THREADS.
  std::size_t apply_threads = 0;
  /// Durable persistence directory (empty = persistence off). When set,
  /// every ingested record is WAL-appended before it is applied, the model
  /// is checkpointed into the directory on the interval below, and
  /// construction auto-recovers whatever the directory holds (newest valid
  /// checkpoint + contiguous WAL tail, torn records truncated). The
  /// directory is bound to the FarmerConfig and dictionary it was written
  /// with: recovery throws on a mismatch rather than mixing models.
  /// Env: FARMER_PERSIST_DIR.
  std::string persist_dir;
  /// Checkpoint every N ingested records (0 = backend default, 65536).
  /// Smaller = shorter WAL replay on recovery, more serialization work.
  /// Env: FARMER_CHECKPOINT_INTERVAL.
  std::size_t checkpoint_interval_records = 0;
  /// fsync the WAL every N records — Pomegranate-style group commit
  /// (0 = backend default, 4096; 1 = fsync every record).
  /// Env: FARMER_WAL_GROUP_COMMIT.
  std::size_t wal_group_commit = 0;
};

/// Backend names, sorted: "farmer" and "sharded".
[[nodiscard]] std::vector<std::string> registered_miners();

/// Constructs the backend registered under `name`. Throws
/// std::invalid_argument on an unknown name or an invalid `cfg`. The
/// returned miner is exclusively owned: nothing in the factory retains a
/// reference, so its lifetime and thread-affinity are entirely the
/// caller's (see CorrelationMiner's thread-safety contract).
[[nodiscard]] std::unique_ptr<CorrelationMiner> make_miner(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict,
    const MinerOptions& opts = {});

}  // namespace farmer
