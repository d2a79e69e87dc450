#include "persist/persister.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <stdexcept>

#include "api/correlation_miner.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace farmer::persist {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kCheckpointPrefix = "CHECKPOINT.";
constexpr std::string_view kWalPrefix = "wal.";

/// Parses the numeric suffix of "CHECKPOINT.<n>" / "wal.<n>" file names.
/// Returns false for foreign files (including the ".tmp" spares), which
/// recovery and pruning both ignore.
bool parse_suffix(std::string_view name, std::string_view prefix,
                  std::uint64_t& out) {
  if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix)
    return false;
  const std::string_view digits = name.substr(prefix.size());
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), out);
  return ec == std::errc() && ptr == digits.data() + digits.size();
}

/// All (sequence, path) pairs for one file family in the directory.
std::vector<std::pair<std::uint64_t, std::string>> list_family(
    const std::string& dir, std::string_view prefix) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parse_suffix(e.path().filename().string(), prefix, seq))
      out.emplace_back(seq, e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Recovery recover_dir(const std::string& dir, const FarmerConfig& cfg,
                     const TraceDictionary* dict) {
  Recovery out;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return out;

  // The manifest binds the directory to its config + dictionary from the
  // first open. Checkpoints carry the same binding, but a directory that
  // never committed one holds only WAL segments — without this check a
  // reopen under a different trace would replay foreign records straight
  // into a mismatched model.
  check_manifest(dir, cfg, dict);

  // Newest checksum-valid checkpoint wins; torn/corrupt ones fall back to
  // older (another format version, or a config or dictionary mismatch,
  // throws from read_checkpoint_file).
  auto checkpoints = list_family(dir, kCheckpointPrefix);
  for (std::size_t i = checkpoints.size(); i-- > 0;) {
    if (auto ckpt = read_checkpoint_file(checkpoints[i].second, cfg, dict)) {
      out.checkpoint_seq = ckpt->seq;
      out.shard_blobs = std::move(ckpt->shard_blobs);
      break;
    }
  }

  // Replay the contiguous WAL tail above the checkpoint. Segments are named
  // by absolute record sequence and read front to back, which cuts each
  // one's torn tail; the first sequence gap ends the durable prefix (a gap
  // can only mean a lost segment — appends are strictly sequential).
  std::uint64_t expected = out.checkpoint_seq + 1;
  bool gap = false;
  for (const auto& [base, path] : list_family(dir, kWalPrefix)) {
    if (gap) break;
    read_wal_segment(path, [&](std::uint64_t seq, const TraceRecord& rec) {
      if (gap || seq <= out.checkpoint_seq) return;
      if (seq != expected) {
        gap = true;
        return;
      }
      out.tail.push_back(rec);
      ++expected;
    });
  }
  return out;
}

void restore_dir(const std::string& dir, const FarmerConfig& cfg,
                 const TraceDictionary* dict, std::span<Farmer* const> shards,
                 CorrelationMiner& owner) {
  if (owner.stats().requests != 0)
    throw std::logic_error(std::string(owner.name()) +
                           ": load() on a miner that has already ingested");
  const Recovery rec = recover_dir(dir, cfg, dict);
  if (!rec.shard_blobs.empty()) {
    if (rec.shard_blobs.size() != shards.size())
      throw std::runtime_error(
          std::string(owner.name()) + ": checkpoint holds " +
          std::to_string(rec.shard_blobs.size()) + " shards, the miner " +
          std::to_string(shards.size()));
    for (std::size_t s = 0; s < shards.size(); ++s)
      deserialize_shard(rec.shard_blobs[s], *shards[s]);
  }
  owner.observe_batch(rec.tail);
}

Persister::Persister(Options opts, const FarmerConfig& cfg,
                     const TraceDictionary* dict, std::uint64_t seq)
    : opts_(std::move(opts)), appended_(seq), last_ckpt_(seq) {
  if (opts_.dir.empty())
    throw std::invalid_argument("Persister: empty persist directory");
  if (opts_.checkpoint_interval_records == 0)
    opts_.checkpoint_interval_records = kDefaultCheckpointInterval;
  if (opts_.wal_group_commit == 0)
    opts_.wal_group_commit = kDefaultWalGroupCommit;
  fs::create_directories(opts_.dir);
  write_manifest(opts_.dir, cfg, dict);
  open_segment_locked(seq);  // no other thread exists yet
  sync_thread_ = std::thread(&Persister::sync_loop, this);
}

Persister::~Persister() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sync_stop_ = true;
  }
  sync_cv_.notify_one();
  if (sync_thread_.joinable()) sync_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (error_) return;
  try {
    wal_->sync();
  } catch (...) {  // best effort: nobody is left to report to
  }
}

/// Runs `step` (WAL I/O under mu_, which the caller holds). A Persister
/// stays failed: a stored error is rethrown before any further I/O, and a
/// new one is stored before it propagates.
void Persister::checked_locked(FunctionRef<void()> step) {
  if (error_) std::rethrow_exception(error_);
  try {
    step();
  } catch (...) {
    error_ = std::current_exception();
    throw;
  }
}

void Persister::append(std::span<const TraceRecord> records) {
  bool group_closed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    checked_locked([&] { wal_->append(appended_ + 1, records); });
    appended_ += records.size();
    unsynced_ += records.size();
    if (unsynced_ >= opts_.wal_group_commit) {
      sync_goal_ = appended_;
      unsynced_ = 0;
      group_closed = true;
    }
  }
  if (group_closed) sync_cv_.notify_one();
}

void Persister::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  checked_locked([&] { wal_->sync(); });
}

void Persister::sync_loop() {
  std::uint64_t synced = 0;
  for (;;) {
    std::shared_ptr<WalWriter> wal;
    std::uint64_t goal = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      sync_cv_.wait(lk, [&] { return sync_stop_ || sync_goal_ > synced; });
      if (sync_goal_ <= synced || error_) break;  // stopped, or failed
      goal = sync_goal_;
      wal = wal_;
    }
    // Outside the lock: appends continue into the open group while this
    // group hits the disk. If the segment rotated since the goal was set,
    // the rotation already synced the old segment inline — syncing the
    // current one is at worst extra durability.
    try {
      wal->sync();
    } catch (...) {
      // Kept for the appender to rethrow. A failed fsync is never retried:
      // the kernel may already have dropped the dirty pages it failed on.
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      return;
    }
    synced = goal;
  }
}

bool Persister::checkpoint_due() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_ - last_ckpt_ >= opts_.checkpoint_interval_records;
}

std::uint64_t Persister::begin_checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  checked_locked([&] { open_segment_locked(appended_); });
  unsynced_ = 0;
  last_ckpt_ = appended_;
  return appended_;
}

void Persister::rebase(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  checked_locked([&] { open_segment_locked(seq); });
  appended_ = seq;
  last_ckpt_ = seq;
  unsynced_ = 0;
}

void Persister::open_segment_locked(std::uint64_t base) {
  if (wal_) wal_->sync();
  // The new segment continues the history that ends at `base`. A segment
  // based at or past `base` holds records beyond that end, from a history
  // recovery cut short at a gap; left in place, the next recovery would
  // replay them in place of the new records with the same sequence numbers.
  for (const auto& [seg_base, seg_path] : list_family(opts_.dir, kWalPrefix))
    if (seg_base >= base) fs::remove(seg_path);
  const std::string path = opts_.dir + "/wal." + std::to_string(base);
  wal_ = std::make_shared<WalWriter>(path);
  wal_base_ = base;
}

void Persister::prune(std::uint64_t committed_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the two newest committed checkpoints: the new one and one
  // predecessor, so a crash mid-prune (or a latent corruption in the new
  // file) still has a fallback with its WAL tail intact.
  auto checkpoints = list_family(opts_.dir, kCheckpointPrefix);
  std::uint64_t oldest_retained = committed_seq;
  if (checkpoints.size() > 2) {
    for (std::size_t i = 0; i + 2 < checkpoints.size(); ++i)
      fs::remove(checkpoints[i].second);
    oldest_retained = checkpoints[checkpoints.size() - 2].first;
  } else if (!checkpoints.empty()) {
    oldest_retained = checkpoints.front().first;
  }

  // A WAL segment based at b covers records (b, next_base]; it is deletable
  // once some other segment starts at or below the oldest retained
  // checkpoint but after b — everything it holds is then covered. The
  // current segment is never deleted.
  auto segments = list_family(opts_.dir, kWalPrefix);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::uint64_t next_base = segments[i + 1].first;
    if (segments[i].first < wal_base_ && next_base <= oldest_retained)
      fs::remove(segments[i].second);
  }
}

}  // namespace farmer::persist
