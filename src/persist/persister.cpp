#include "persist/persister.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <stdexcept>

#include "persist/checkpoint.hpp"
#include "trace/trace_io.hpp"

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

  // Replay the contiguous WAL tail above the checkpoint. Segments are keyed
  // by absolute record sequence; opening a LogStore truncates its torn tail,
  // and the first sequence gap ends the durable prefix (a gap can only mean
  // a lost segment — appends are strictly sequential).
  std::uint64_t expected = out.checkpoint_seq + 1;
  bool gap = false;
  for (const auto& [base, path] : list_family(dir, kWalPrefix)) {
    if (gap) break;
    LogStore segment(path);
    segment.scan(0, UINT64_MAX,
                 [&](std::uint64_t key, std::string_view value) {
                   if (key <= out.checkpoint_seq) return true;
                   if (key != expected) {
                     gap = true;
                     return false;
                   }
                   out.tail.push_back(decode_record(value));
                   ++expected;
                   return true;
                 });
  }
  return out;
}

Persister::Persister(Options opts) : opts_(std::move(opts)) {
  if (opts_.dir.empty())
    throw std::invalid_argument("Persister: empty persist directory");
  if (opts_.checkpoint_interval_records == 0)
    opts_.checkpoint_interval_records = kDefaultCheckpointInterval;
  if (opts_.wal_group_commit == 0)
    opts_.wal_group_commit = kDefaultWalGroupCommit;
  fs::create_directories(opts_.dir);
}

Persister::~Persister() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sync_stop_ = true;
  }
  sync_cv_.notify_one();
  if (sync_thread_.joinable()) sync_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_) wal_->sync();
}

Recovery Persister::open(const FarmerConfig& cfg,
                         std::shared_ptr<const TraceDictionary> dict) {
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_) throw std::logic_error("Persister::open called twice");
  opened_ = true;
  cfg_ = cfg;
  dict_ = std::move(dict);
  Recovery rec = recover_dir(opts_.dir, cfg_, dict_.get());
  write_manifest(opts_.dir, cfg_, dict_.get());
  appended_ = rec.durable_records();
  last_ckpt_ = appended_;
  open_segment_locked(appended_);
  sync_thread_ = std::thread(&Persister::sync_loop, this);
  return rec;
}

std::uint64_t Persister::append(std::span<const TraceRecord> records) {
  bool group_closed = false;
  std::uint64_t last;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string value;
    for (const TraceRecord& rec : records) {
      value.clear();
      encode_record(rec, value);
      wal_->put(++appended_, value);
      ++unsynced_;
    }
    if (unsynced_ >= opts_.wal_group_commit) {
      sync_goal_ = appended_;
      unsynced_ = 0;
      group_closed = true;
    }
    last = appended_;
  }
  if (group_closed) sync_cv_.notify_one();
  return last;
}

void Persister::sync_loop() {
  std::uint64_t synced = 0;
  for (;;) {
    std::shared_ptr<LogStore> wal;
    std::uint64_t goal = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      sync_cv_.wait(lk, [&] { return sync_stop_ || sync_goal_ > synced; });
      if (sync_goal_ <= synced) break;  // stop requested, nothing pending
      goal = sync_goal_;
      wal = wal_;
    }
    // Outside the lock: appends continue into the open group while this
    // group hits the disk. If the segment rotated since the goal was set,
    // the rotation already synced the old segment inline — syncing the
    // current one is at worst extra durability.
    if (wal) wal->sync();
    synced = goal;
  }
}

std::uint64_t Persister::appended_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

bool Persister::checkpoint_due() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_ - last_ckpt_ >= opts_.checkpoint_interval_records;
}

std::uint64_t Persister::begin_checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  wal_->sync();
  unsynced_ = 0;
  last_ckpt_ = appended_;
  open_segment_locked(appended_);
  return appended_;
}

void Persister::commit_checkpoint(std::uint64_t seq,
                                  std::span<const std::string> shard_blobs) {
  // The file write happens outside the lock — it is a fresh file nothing
  // else touches, and serialization-heavy checkpoints must not stall the
  // appender. Only the prune walks shared directory state.
  write_checkpoint_file(
      opts_.dir + "/CHECKPOINT." + std::to_string(seq), seq, cfg_,
      dict_.get(), shard_blobs);
  std::lock_guard<std::mutex> lock(mu_);
  prune_locked(seq);
}

void Persister::rebase(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  appended_ = seq;
  last_ckpt_ = seq;
  unsynced_ = 0;
  open_segment_locked(seq);
}

std::uint64_t Persister::last_checkpoint_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_ckpt_;
}

void Persister::open_segment_locked(std::uint64_t base) {
  if (wal_) wal_->sync();
  wal_base_ = base;
  // Append-only: the writing process never reads a live segment back (the
  // readable index is rebuilt by recover_dir's own indexed open), so the
  // segment skips the per-record index copy on the append path.
  wal_ = std::make_shared<LogStore>(
      opts_.dir + "/wal." + std::to_string(base), opts_.durability,
      LogStore::IndexMode::kAppendOnly);
}

void Persister::prune_locked(std::uint64_t committed_seq) {
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
