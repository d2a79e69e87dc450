// Out-of-core trace streaming: the v3 mmap-able binary trace format.
//
// The retired v2 format put the dictionary first and the records last, so
// replaying a trace meant deserializing every record through an istream —
// fine at 100k records, hopeless at billions. v3 inverts the layout so the
// record section sits at a fixed offset with a fixed stride and replay
// needs no decode pass at all: the file is mapped and the section *is* a
// std::span<const TraceRecord>.
//
// File layout (little-endian, 64-byte header):
//
//   [0]  u32 magic (kTraceMagic)     [4]  u32 version (3)
//   [8]  u64 record_count            [16] u64 record_offset (== 64)
//   [24] u64 meta_offset             [32] u64 file_size
//   [40] u64 checksum                [48] u8 kind, u8 has_paths,
//                                         14 reserved zero bytes
//   [64] record section: record_count x sizeof(TraceRecord) raw records,
//        padding bytes canonicalized to zero by the writer
//   [meta_offset] metadata footer: u32 name_len, name bytes, dictionary
//        (trace_io encode_dictionary), ending exactly at file_size
//
// The footer comes last so a TraceWriter can stream records with bounded
// memory and patch the header on finish(); meta_offset always equals
// record_offset + record_count * sizeof(TraceRecord).
//
// The checksum is a word-wise mix64 chain over the record section, then
// the metadata footer, then the header fields (record_count, meta_offset,
// file_size, kind, has_paths), so truncations and bit flips anywhere in
// the file are detected at open time — TraceReader validates the header
// against the actual file size, verifies the checksum, decodes the
// dictionary with bounds/id validation, and only then exposes the record
// span. Records themselves are validated lazily: materialize() checks
// every record, while records() trusts the checksum (replay at billions of
// records cannot afford a per-field pass).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.hpp"

namespace farmer {

inline constexpr std::size_t kTraceV3HeaderBytes = 64;

/// Streams a v3 trace file with bounded memory: records are appended
/// incrementally (checksummed on the fly), the dictionary footer and the
/// header are written by finish(). A writer that is destroyed without
/// finish() leaves a file with a zeroed header, which every reader
/// rejects — there are no partially-valid v3 files.
///
/// Not thread-safe. Throws std::runtime_error on I/O failure.
class TraceWriter {
 public:
  TraceWriter(const std::string& path, TraceKind kind, bool has_paths);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one record / a batch of records to the record section.
  /// Padding bytes are canonicalized to zero so files are byte-stable for
  /// a given record stream.
  void append(const TraceRecord& rec);
  void append(std::span<const TraceRecord> records);

  /// Writes the metadata footer (`name` + `dict`), patches the header and
  /// closes the file. Must be called exactly once; append() is invalid
  /// afterwards. The dictionary may keep growing until this call — the
  /// multi-tenant streaming generator holds several writers open against
  /// one shared dictionary and finishes them all at the end.
  void finish(std::string_view name, const TraceDictionary& dict);

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return count_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void put_bytes(const void* data, std::size_t len);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t count_ = 0;
  std::uint64_t hash_ = 0;
  TraceKind kind_;
  bool has_paths_;
  bool finished_ = false;
};

/// Maps a v3 trace file and exposes its record section as a zero-copy
/// span. Construction validates the header against the real file size,
/// verifies the whole-file checksum and decodes the dictionary (see the
/// format notes above); any corruption throws std::runtime_error and
/// nothing is allocated beyond the dictionary itself.
///
/// The span returned by records() points into the mapping and is valid
/// only while the reader is alive. Const methods are safe to call from
/// multiple threads (the mapping is read-only).
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// The record section, straight off the mapping — no decode pass.
  [[nodiscard]] std::span<const TraceRecord> records() const noexcept {
    return {records_, count_};
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] TraceKind kind() const noexcept { return kind_; }
  [[nodiscard]] bool has_paths() const noexcept { return has_paths_; }
  [[nodiscard]] const std::shared_ptr<TraceDictionary>& dict()
      const noexcept {
    return dict_;
  }

  /// The raw dictionary bytes inside the footer (name excluded) — used by
  /// merge_trace_streams to check inputs share one dictionary without
  /// re-encoding it.
  [[nodiscard]] std::string_view dict_bytes() const noexcept {
    return dict_bytes_;
  }

  /// Copies the file into an in-memory Trace, validating every record
  /// against the dictionary (trace_io validate_record). This is the slow,
  /// paranoid path read_trace_binary takes; replay benches use records().
  [[nodiscard]] Trace materialize() const;

 private:
  /// Unmaps the file: when the reader dies, and when the constructor
  /// rejects a file it has already mapped.
  struct Unmap {
    std::size_t len;
    void operator()(void* addr) const noexcept;
  };

  std::string path_;
  std::unique_ptr<void, Unmap> map_;  ///< the whole file, mapped read-only
  const TraceRecord* records_ = nullptr;
  std::uint64_t count_ = 0;
  std::string name_;
  TraceKind kind_ = TraceKind::kCustom;
  bool has_paths_ = false;
  std::shared_ptr<TraceDictionary> dict_;
  std::string_view dict_bytes_;
};

/// External k-way merge: interleaves the (time-ordered) record streams of
/// `inputs` into one v3 file at `out_path`, ordered by (timestamp, input
/// index) — byte-for-byte the order std::stable_sort gives the in-memory
/// multi-tenant merge, so the streamed pipeline and make_multi_tenant_trace
/// produce identical record streams. Memory is O(inputs), independent of
/// record counts.
///
/// All inputs must share one dictionary (identical dict_bytes(), as the
/// streaming generator guarantees) and be internally time-ordered; the
/// output kind is the common input kind (kCustom when mixed) and has_paths
/// is the conjunction. Returns the merged record count. Throws
/// std::runtime_error on corrupt/mismatched inputs, std::invalid_argument
/// when `inputs` is empty.
std::uint64_t merge_trace_streams(std::span<const std::string> inputs,
                                  const std::string& out_path,
                                  std::string_view out_name);

}  // namespace farmer
