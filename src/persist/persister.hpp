// The durable persistence layer: the record WAL with group commit, the
// checkpoint cadence and pruning, and the directory reader recovery uses.
//
// Directory layout (one directory per miner, `MinerOptions::persist_dir`):
//
//   MANIFEST           config + dictionary binding, written at first open
//   CHECKPOINT.<seq>   checkpoint covering records [1, seq] (checkpoint.hpp)
//   wal.<base>         WAL segment holding records base+1, base+2, ...
//                      (wal.hpp)
//
// Appends go to the current segment; every `wal_group_commit` records
// close a commit group whose fsync runs on a dedicated group-sync thread
// (Pomegranate-style transaction groups: the appender opens the next group
// while the previous one syncs), so the ingest path never blocks on the
// disk and the crash-loss window stays bounded to the groups still in
// flight. Checkpoint rotation, rebase, sync() and shutdown sync inline —
// those are the points that need a durable cut. A failed WAL write or sync
// stops ingest: the error is rethrown by the call that hit it or, for the
// group-sync thread, by the next append/sync/begin_checkpoint/rebase, and
// every later one.
//
// The Persister neither reads nor writes checkpoints. Its owner
// (DurableMiner) recovers through the backend's load() (restore_dir below)
// and checkpoints through its save(): begin_checkpoint rotates the WAL at a
// point where appended == applied, the owner writes CHECKPOINT.<seq>, and
// prune drops superseded checkpoints and fully-covered WAL segments.
//
// Recovery (recover_dir): newest checksum-valid checkpoint + the contiguous
// WAL tail above its sequence number, torn records truncated. Recovery time
// is bounded by checkpoint size + one checkpoint interval of WAL replay.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"
#include "core/config.hpp"
#include "trace/record.hpp"

namespace farmer {

class CorrelationMiner;
class Farmer;

}  // namespace farmer

namespace farmer::persist {

class WalWriter;

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
};

/// Everything recovery found in a persist directory.
struct Recovery {
  std::uint64_t checkpoint_seq = 0;      ///< 0 when no valid checkpoint
  std::vector<std::string> shard_blobs;  ///< empty when no valid checkpoint
  std::vector<TraceRecord> tail;         ///< WAL records after checkpoint_seq
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

/// The one load() of both backends: recovers `dir` under `cfg`/`dict`,
/// restores the checkpoint's blobs into `shards` in order, then replays
/// the WAL tail through `owner.observe_batch()`. `shards` are `owner`'s
/// own. Throws std::logic_error when `owner` has already ingested and
/// std::runtime_error when the checkpoint holds another number of shards,
/// and passes on what recover_dir throws.
void restore_dir(const std::string& dir, const FarmerConfig& cfg,
                 const TraceDictionary* dict, std::span<Farmer* const> shards,
                 CorrelationMiner& owner);

class Persister {
 public:
  /// Opens the directory at the durable end `seq` (the record count its
  /// owner recovered): creates the directory, writes the MANIFEST binding
  /// `cfg`/`dict` if absent (`dict` may be null), removes every WAL segment
  /// based at or past `seq` (records recovery did not take, stranded past a
  /// gap), starts a fresh segment based at `seq` and the group-sync thread.
  Persister(Options opts, const FarmerConfig& cfg,
            const TraceDictionary* dict, std::uint64_t seq);
  /// Stops the group-sync thread and syncs the open segment, best effort:
  /// a failure here has no caller to report to, and a Persister that
  /// already failed does not sync again.
  ~Persister();
  Persister(const Persister&) = delete;
  Persister& operator=(const Persister&) = delete;

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// Appends records to the WAL in ingest order; crossing a group-commit
  /// boundary hands the group to the background sync thread (the appender
  /// does not wait for the fsync). Single appender at a time. Throws
  /// std::system_error on a failed write, or on a group sync that failed
  /// since the last call.
  void append(std::span<const TraceRecord> records);

  /// Makes every appended record durable: fsyncs the open segment inline,
  /// whatever its commit group. Throws std::system_error on a failed sync,
  /// or on a group sync that failed since the last call.
  void sync();

  /// True once a checkpoint interval of records accumulated since the last
  /// initiated checkpoint.
  [[nodiscard]] bool checkpoint_due() const;

  /// Initiates a checkpoint at the current appended sequence: syncs and
  /// rotates the WAL (new segment based at the returned seq). Call at a
  /// point where every appended record is also applied to the model, then
  /// write CHECKPOINT.<seq> and finish with prune(seq).
  std::uint64_t begin_checkpoint();

  /// Call once CHECKPOINT.<committed_seq> is written: keeps the two newest
  /// checkpoints and deletes WAL segments fully covered by the older
  /// retained one.
  void prune(std::uint64_t committed_seq);

  /// Re-bases the WAL after the model was replaced externally (load()):
  /// the append cursor jumps to `seq` and a fresh segment starts there.
  /// Follow with a checkpoint at `seq` and prune(seq) so the directory
  /// covers the loaded state.
  void rebase(std::uint64_t seq);

 private:
  void checked_locked(FunctionRef<void()> step);
  void open_segment_locked(std::uint64_t base);
  void sync_loop();

  Options opts_;

  mutable std::mutex mu_;
  // shared_ptr: the group-sync thread syncs outside the lock while a
  // checkpoint rotation may concurrently swap in a fresh segment (the old
  // one stays alive until the in-flight sync drops its reference).
  std::shared_ptr<WalWriter> wal_;  // current segment
  std::uint64_t wal_base_ = 0;
  std::uint64_t appended_ = 0;      // absolute seq of the last append
  std::size_t unsynced_ = 0;        // records since the last group boundary
  std::uint64_t last_ckpt_ = 0;     // last initiated checkpoint seq
  std::uint64_t sync_goal_ = 0;     // newest group boundary to fsync
  bool sync_stop_ = false;
  // The first WAL failure, from either thread. Once set, every further
  // append/sync/begin_checkpoint/rebase rethrows it and no sync is retried.
  std::exception_ptr error_;
  std::condition_variable sync_cv_;
  std::thread sync_thread_;
};

}  // namespace farmer::persist
