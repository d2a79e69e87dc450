// WAL segments: the record log the Persister writes (persister.hpp).
//
// A segment file `wal.<base>` holds records base+1, base+2, ... in append
// order, each framed as (little-endian)
//
//   [u32 checksum][u8 op = 1][u64 seq][u32 len][len bytes]
//
// where the len = sizeof(TraceRecord) bytes are the record's canonical
// encoding (trace_io.hpp, canonical_bytes). The checksum is the low 32 bits
// of a mix64 chain over those bytes, seeded with seq, op and len.
//
// The writer only appends. The reader walks a segment front to back and
// cuts a torn tail in place, so the next append starts at a clean record
// boundary.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "common/function_ref.hpp"
#include "trace/record.hpp"

namespace farmer::persist {

/// Appends records to one segment file, creating it if absent. Opening,
/// every write, the flush and the fdatasync are checked: a failure throws
/// std::system_error naming the path (io_error.hpp).
class WalWriter {
 public:
  explicit WalWriter(std::string path);
  /// Closes the file without syncing it.
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends `records` as sequence numbers first_seq, first_seq + 1, ...
  void append(std::uint64_t first_seq, std::span<const TraceRecord> records);

  /// Flushes the appended records and fdatasync()s them to stable storage.
  /// Safe to call from another thread while append() runs.
  void sync();

 private:
  std::string path_;
  std::FILE* file_;
};

/// Reads the segment at `path` front to back, hands each valid record to
/// `fn` in file order, then cuts whatever follows the last valid record.
/// A record is torn when its header or body is short, its length runs past
/// the end of the file (checked before the body is touched), its checksum
/// fails or its op is unknown; the first torn record ends the segment. A
/// record whose checksum verifies but whose length is not
/// sizeof(TraceRecord) belongs to another format and throws
/// std::runtime_error. An absent file reads as empty.
void read_wal_segment(
    const std::string& path,
    FunctionRef<void(std::uint64_t seq, const TraceRecord& rec)> fn);

}  // namespace farmer::persist
