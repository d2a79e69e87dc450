// Append-only persistent log store with crash recovery — the Berkeley DB
// stand-in behind the persistence WAL. Keys are 64-bit; values are opaque
// byte strings.
//
// Every put appends a checksummed record to a log file; an in-memory hash
// index maps keys to their latest value. On open, the log is replayed to
// rebuild the index; a torn tail (partial final record or bad checksum) is
// truncated, matching the write-ahead-log discipline Berkeley DB applies.
// The log only grows: the WAL writes each key once, and an overwrite leaves
// the older record in the file.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace farmer {

class LogStore {
 public:
  /// How far `sync()` pushes appended records.
  enum class Durability {
    kBuffered,  ///< fflush only: survives the process, not the machine
    kFsync,     ///< fflush + fdatasync: survives power loss (WAL group commit)
  };

  /// Whether the store maintains its in-memory key→value index.
  enum class IndexMode {
    kIndexed,     ///< default: get/scan work (Berkeley-DB use)
    kAppendOnly,  ///< write-optimized WAL segment: put() only appends; the
                  ///< replay still validates and truncates the torn tail,
                  ///< but get()/scan() see nothing and size() is 0. Reopen
                  ///< in kIndexed mode to read the contents back.
  };

  /// Opens (creating if needed) the log at `path` and replays it.
  /// Throws std::runtime_error on unrecoverable I/O errors.
  explicit LogStore(std::string path,
                    Durability durability = Durability::kBuffered,
                    IndexMode index_mode = IndexMode::kIndexed);
  ~LogStore();
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  /// Inserts or overwrites.
  void put(std::uint64_t key, std::string_view value);
  /// Point lookup.
  [[nodiscard]] std::optional<std::string> get(std::uint64_t key) const;
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  /// In-order scan over [lo, hi]; `fn` returns false to stop early.
  void scan(std::uint64_t lo, std::uint64_t hi,
            const std::function<bool(std::uint64_t, std::string_view)>& fn)
      const;

  /// Flushes buffered appends to the OS; in `Durability::kFsync` mode also
  /// fdatasync()s them to stable storage before returning.
  void sync();

  /// Number of log records replayed by the constructor (tests/recovery).
  [[nodiscard]] std::size_t recovered_records() const noexcept {
    return recovered_;
  }

 private:
  void append(std::uint64_t key, std::string_view value);
  void replay();

  std::string path_;
  Durability durability_ = Durability::kBuffered;
  IndexMode index_mode_ = IndexMode::kIndexed;
  std::FILE* file_ = nullptr;
  std::unordered_map<std::uint64_t, std::string> index_;
  std::string write_buf_;  // reused per append: one fwrite per record
  std::size_t recovered_ = 0;
};

}  // namespace farmer
