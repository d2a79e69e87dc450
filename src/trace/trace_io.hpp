// Trace persistence.
//
// One on-disk trace format: v3, the mmap-able out-of-core layout
// (fixed-offset record section first, metadata footer last) implemented by
// trace_stream.hpp. `write_trace_binary` produces it and
// `read_trace_binary` loads it into memory; any other version is rejected.
//
// Every decoder here is hardened against corrupt input: counts are bounded
// by the bytes actually present before anything is allocated, and decoded
// ids (TraceKind, FileMeta.path, token ids) are validated against the
// tables just read, so a truncated or bit-flipped blob throws
// std::runtime_error instead of OOMing or deferring the crash to first use.
//
// The dictionary codec (`encode_dictionary`/`decode_dictionary`) is also
// the persistence substrate: checkpoints embed dictionaries through it.
#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "trace/record.hpp"

namespace farmer {

inline constexpr std::uint32_t kTraceMagic = 0xFA12ACE5;
inline constexpr std::uint32_t kTraceVersion3 = 3;

/// Bounds-checked forward reader over a serialized blob. Any overrun means
/// the blob is torn or malformed and surfaces as std::runtime_error tagged
/// with `what`. Shared by the v3 trace codec and the persistence
/// checkpoints.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes, const char* what = "blob")
      : p_(bytes.data()), end_(bytes.data() + bytes.size()), what_(what) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) throw truncated();
    T v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }

  void get_bytes(char* dst, std::size_t len) {
    if (remaining() < len) throw truncated();
    std::memcpy(dst, p_, len);
    p_ += len;
  }

  /// Zero-copy sub-view of the next `len` bytes (advances the cursor).
  [[nodiscard]] std::string_view view(std::size_t len) {
    if (remaining() < len) throw truncated();
    const std::string_view v(p_, len);
    p_ += len;
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

 private:
  [[nodiscard]] std::runtime_error truncated() const {
    return std::runtime_error(std::string(what_) + " truncated");
  }

  const char* p_;
  const char* end_;
  const char* what_;
};

/// Appends the v3 dictionary encoding (token table, path components with
/// uint32 counts, file metadata) to `out`. Shared between v3 trace files
/// and the persistence subsystem's checkpoints, which embed the dictionary
/// so a checkpoint is self-describing.
void encode_dictionary(std::string& out, const TraceDictionary& dict);

/// Decodes a dictionary encoded by `encode_dictionary` into `dict` (which
/// must be empty), consuming from `in`. Counts are bounded against the
/// bytes remaining and every decoded id (path-component tokens,
/// FileMeta.path/dev/fid) is validated against the tables just read;
/// corruption throws std::runtime_error.
void decode_dictionary(ByteReader& in, TraceDictionary& dict);

/// Validates a raw on-disk TraceKind byte; throws std::runtime_error on an
/// out-of-range value.
[[nodiscard]] TraceKind validate_trace_kind(std::uint8_t raw);

/// Validates one record against `dict`: the file id must index the file
/// table, op must be a known OpType, and path/token ids must be invalid or
/// in range. Throws std::runtime_error naming the offending field.
void validate_record(const TraceRecord& rec, const TraceDictionary& dict);

/// Serializes one record into `out` (sizeof(TraceRecord) bytes) with its
/// padding bytes zeroed: the one on-disk record encoding, shared by v3
/// trace files and WAL records. Padding is indeterminate in in-memory
/// records, but files must be byte-stable (checksums cover every byte, and
/// the differential tests compare whole files).
void canonical_bytes(const TraceRecord& r, unsigned char* out) noexcept;

/// Writes `trace` in the v3 binary format (see trace_stream.hpp). Throws
/// std::runtime_error on I/O failure.
void write_trace_binary(const Trace& trace, const std::string& path);

/// Reads a trace written by `write_trace_binary` into memory, validating
/// every record (TraceReader::materialize). Throws std::runtime_error on
/// I/O failure, an unsupported version, or corruption.
[[nodiscard]] Trace read_trace_binary(const std::string& path);

/// Streams a human-readable TSV rendering (header + one row per record).
void write_trace_tsv(const Trace& trace, std::ostream& os,
                     std::size_t max_records = SIZE_MAX);

}  // namespace farmer
