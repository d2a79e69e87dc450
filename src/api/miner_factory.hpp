// Runtime-selectable mining backends.
//
// `make_miner("farmer" | "sharded" | "concurrent", cfg, dict, opts)` turns
// the backend choice into data: benches flip ablations (Table 2/3, Fig.
// 3/6) with a string flag instead of a recompiled type, and a new backend
// registers itself via `register_miner` without touching any consumer.
//
// The configuration is validated (FarmerConfig::validate) before any
// backend is constructed; a bad config or an unknown backend name throws
// std::invalid_argument naming the problem and the registered backends.
#pragma once

#include <functional>
#include <memory>
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
  std::size_t shards = 4;  ///< partitions for "sharded" and "concurrent"
  /// Producer queue slots for the "concurrent" backend: the number of
  /// ingest threads expected to call observe() concurrently (threads hash
  /// onto slots, so more threads than slots merely share queues).
  std::size_t ingest_threads = 4;
  /// Worker lanes for the shard-disjoint parallel apply behind
  /// observe_batch() on "sharded" — and on "concurrent", whose drain hands
  /// every collected batch to its inner sharded miner. 0 = auto (hardware
  /// parallelism), 1 = serial apply; more lanes than shards are capped at
  /// the shard count. Every setting produces byte-identical models: shard
  /// slices preserve per-shard record order and shards share no mutable
  /// state. Env: FARMER_APPLY_THREADS.
  std::size_t apply_threads = 0;
  /// Backpressure bound for the "concurrent" backend: producers soft-block
  /// once this many records are queued but unapplied. 0 = backend default.
  std::size_t max_pending = 0;
  /// Publish coalescing for the "concurrent" backend: the drain batches
  /// apply rounds and publishes a new shard table only once at least this
  /// many records have been applied since the last publication, or the
  /// staleness deadline below expires. flush() stays a strict barrier: a
  /// waiting flush forces the publish as soon as the queues run dry.
  /// 0 or 1 = publish after every apply round (the uncoalesced reference
  /// behavior). Env: FARMER_PUBLISH_INTERVAL.
  std::size_t publish_interval_records = 0;
  /// Staleness bound for coalesced publishes, in milliseconds: applied
  /// records become queryable at most this much later (plus scheduling),
  /// busy or idle, even when the record interval has not been reached.
  /// Only meaningful with publish_interval_records > 1; 0 = backend
  /// default (4 ms). Env: FARMER_PUBLISH_MAX_DELAY_MS.
  std::size_t publish_max_delay_ms = 0;
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

using MinerFactoryFn = std::function<std::unique_ptr<CorrelationMiner>(
    const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
    const MinerOptions& opts)>;

/// Adds (or replaces) a backend under `name`. Returns true when `name` was
/// new. Built-ins "farmer", "sharded" and "concurrent" are pre-registered.
/// This is the extension seam for new backends — see docs/ARCHITECTURE.md.
///
/// A registered factory must return miners honoring the CorrelationMiner
/// contracts (correlation_miner.hpp): in particular flush() must be a real
/// ingest barrier on asynchronous backends, and stats() must follow the
/// MinerStats field contract (zero epoch/pending and empty shard_epochs
/// when the concept does not apply).
///
/// Thread-safety: registration is NOT synchronized against concurrent
/// make_miner()/registered_miners() calls — register backends at startup,
/// before mining threads exist (the registry is touched from one thread in
/// every shipped consumer).
bool register_miner(const std::string& name, MinerFactoryFn factory);

/// Registered backend names, sorted.
[[nodiscard]] std::vector<std::string> registered_miners();

/// Constructs the backend registered under `name`. Throws
/// std::invalid_argument on an unknown name or an invalid `cfg`. The
/// returned miner is exclusively owned: nothing in the factory retains a
/// reference, so its lifetime and thread-affinity are entirely the
/// caller's (see the per-backend thread-safety contracts).
[[nodiscard]] std::unique_ptr<CorrelationMiner> make_miner(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict,
    const MinerOptions& opts = {});

}  // namespace farmer
