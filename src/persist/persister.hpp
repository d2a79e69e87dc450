// The durable persistence driver: record WAL with group commit, checkpoint
// lifecycle, and bounded-time recovery.
//
// Directory layout (one directory per miner, `MinerOptions::persist_dir`):
//
//   MANIFEST           config + dictionary binding, written at first open
//   CHECKPOINT.<seq>   checkpoint covering records [1, seq] (checkpoint.hpp)
//   wal.<base>         LogStore segment holding records base+1, base+2, ...
//
// WAL keys are absolute 1-based record sequence numbers; values are the raw
// TraceRecord encoding (trace_io). Appends batch through one LogStore;
// every `wal_group_commit` records close a commit group whose fsync runs on
// a dedicated group-sync thread (Pomegranate-style transaction groups: the
// appender opens the next group while the previous one syncs), so the
// ingest path never blocks on the disk and the crash-loss window stays
// bounded to the groups still in flight. Checkpoint rotation, rebase and
// shutdown sync inline — those are the points that need a durable cut.
//
// Checkpoints rotate the WAL first (begin_checkpoint, cheap and synchronous
// at a point where appended == applied), then the serialized state is
// written atomically on the caller's thread (DurableMiner checkpoints
// inline) and commit_checkpoint prunes superseded checkpoints and
// fully-covered WAL segments.
//
// Recovery (recover_dir): newest checksum-valid checkpoint + the contiguous
// WAL tail above its sequence number, torn records truncated. Recovery time
// is bounded by checkpoint size + one checkpoint interval of WAL replay.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "kvstore/log_store.hpp"
#include "trace/record.hpp"

namespace farmer::persist {

/// Defaults applied when MinerOptions leaves the knobs at 0.
inline constexpr std::size_t kDefaultCheckpointInterval = 1u << 16;
inline constexpr std::size_t kDefaultWalGroupCommit = 4096;

struct Options {
  std::string dir;  ///< persist directory (created if needed)
  /// Checkpoint every N appended records (0 = kDefaultCheckpointInterval).
  std::size_t checkpoint_interval_records = 0;
  /// fsync the WAL every N appended records (0 = kDefaultWalGroupCommit;
  /// 1 = every record).
  std::size_t wal_group_commit = 0;
  /// kFsync for real durability; kBuffered keeps tests fast.
  LogStore::Durability durability = LogStore::Durability::kFsync;
};

/// Everything recovery found in a persist directory.
struct Recovery {
  std::uint64_t checkpoint_seq = 0;      ///< 0 when no valid checkpoint
  std::vector<std::string> shard_blobs;  ///< empty when no valid checkpoint
  std::vector<TraceRecord> tail;         ///< WAL records after checkpoint_seq

  /// Records the directory durably holds: checkpoint + contiguous tail.
  [[nodiscard]] std::uint64_t durable_records() const noexcept {
    return checkpoint_seq + tail.size();
  }
};

/// Reads a persist directory: validates the MANIFEST binding, then the
/// newest checksum-valid checkpoint (corrupt ones fall back to older) plus
/// the contiguous WAL tail above it, truncating torn records. A manifest or
/// checkpoint recording a different config/dictionary throws — see
/// checkpoint.hpp. Safe on a directory no Persister has open. An absent or
/// empty directory recovers to the empty model.
[[nodiscard]] Recovery recover_dir(const std::string& dir,
                                   const FarmerConfig& cfg,
                                   const TraceDictionary* dict);

class Persister {
 public:
  explicit Persister(Options opts);
  ~Persister();
  Persister(const Persister&) = delete;
  Persister& operator=(const Persister&) = delete;

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// Opens the directory: runs recovery, positions the append cursor at the
  /// durable end, and starts a fresh WAL segment. Must be called exactly
  /// once, before any append. `cfg`/`dict` are retained for checkpoint
  /// writing (`dict` may be null — the dictionary check is then skipped).
  [[nodiscard]] Recovery open(const FarmerConfig& cfg,
                              std::shared_ptr<const TraceDictionary> dict);

  /// Appends records to the WAL in ingest order; crossing a group-commit
  /// boundary hands the group to the background sync thread (the appender
  /// does not wait for the fsync). Returns the sequence number of the last
  /// record appended. Single appender at a time.
  std::uint64_t append(std::span<const TraceRecord> records);

  /// Sequence number of the last appended record.
  [[nodiscard]] std::uint64_t appended_seq() const;

  /// True once a checkpoint interval of records accumulated since the last
  /// initiated checkpoint.
  [[nodiscard]] bool checkpoint_due() const;

  /// Initiates a checkpoint at the current appended sequence: syncs and
  /// rotates the WAL (new segment based at the returned seq). Call at a
  /// point where every appended record is also applied to the model, then
  /// serialize the shards and finish with commit_checkpoint. Cheap —
  /// serialization happens outside.
  std::uint64_t begin_checkpoint();

  /// Writes CHECKPOINT.<seq> atomically from pre-serialized shard blobs,
  /// then prunes: keeps the two newest checkpoints and deletes WAL segments
  /// fully covered by the older retained one.
  void commit_checkpoint(std::uint64_t seq,
                         std::span<const std::string> shard_blobs);

  /// Re-bases the WAL after the model was replaced externally (load()):
  /// the append cursor jumps to `seq` and a fresh segment starts there.
  /// Follow with commit_checkpoint(seq, ...) so the directory covers the
  /// loaded state.
  void rebase(std::uint64_t seq);

  /// Sequence covered by the last *initiated* checkpoint (or rebase).
  [[nodiscard]] std::uint64_t last_checkpoint_seq() const;

 private:
  void open_segment_locked(std::uint64_t base);
  void prune_locked(std::uint64_t committed_seq);
  void sync_loop();

  Options opts_;
  FarmerConfig cfg_;
  std::shared_ptr<const TraceDictionary> dict_;
  bool opened_ = false;

  mutable std::mutex mu_;
  // shared_ptr: the group-sync thread syncs outside the lock while a
  // checkpoint rotation may concurrently swap in a fresh segment (the old
  // one stays alive until the in-flight sync drops its reference).
  std::shared_ptr<LogStore> wal_;  // current segment
  std::uint64_t wal_base_ = 0;
  std::uint64_t appended_ = 0;      // absolute seq of the last append
  std::size_t unsynced_ = 0;        // records since the last group boundary
  std::uint64_t last_ckpt_ = 0;     // last initiated checkpoint seq
  std::uint64_t sync_goal_ = 0;     // newest group boundary to fsync
  bool sync_stop_ = false;
  std::condition_variable sync_cv_;
  std::thread sync_thread_;
};

}  // namespace farmer::persist
