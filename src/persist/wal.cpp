#include "persist/wal.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include <unistd.h>

#include "common/hash.hpp"
#include "persist/io_error.hpp"
#include "trace/trace_io.hpp"

namespace farmer::persist {

namespace {

// The only record kind; the reader treats any other op byte as a torn
// record.
constexpr std::uint8_t kOpPut = 1;

// Field offsets of the record frame (wal.hpp), for the writer.
constexpr std::size_t kOffOp = 4;
constexpr std::size_t kOffSeq = 5;
constexpr std::size_t kOffLen = 13;
constexpr std::size_t kHeaderBytes = 17;
constexpr std::size_t kRecordBytes = kHeaderBytes + sizeof(TraceRecord);

// Low 32 bits of a word-wise mix64 chain over the body, seeded with the
// sequence number, op and body length (so a zero-padded final word cannot
// alias a shorter body).
std::uint32_t record_checksum(std::uint8_t op, std::uint64_t seq,
                              const void* body, std::uint32_t len) {
  const std::uint64_t seed = mix64(seq ^ (std::uint64_t{op} << 56) ^
                                   (len * 0x9E3779B97F4A7C15ull));
  return static_cast<std::uint32_t>(mix_bytes(seed, body, len));
}

}  // namespace

WalWriter::WalWriter(std::string path)
    : path_(std::move(path)), file_(std::fopen(path_.c_str(), "ab")) {
  if (file_ == nullptr) fail_io("cannot open", path_, errno);
}

WalWriter::~WalWriter() { std::fclose(file_); }

void WalWriter::append(std::uint64_t first_seq,
                       std::span<const TraceRecord> records) {
  // Frames go out in chunks: one stdio call (one FILE lock round-trip) per
  // chunk, and a bounded buffer however large the batch.
  constexpr std::size_t kChunkRecords = 128;
  unsigned char chunk[kChunkRecords * kRecordBytes];
  constexpr auto len = static_cast<std::uint32_t>(sizeof(TraceRecord));
  while (!records.empty()) {
    const std::size_t n = std::min(records.size(), kChunkRecords);
    for (std::size_t i = 0; i < n; ++i) {
      unsigned char* frame = chunk + i * kRecordBytes;
      const std::uint64_t seq = first_seq++;
      canonical_bytes(records[i], frame + kHeaderBytes);
      const std::uint32_t csum =
          record_checksum(kOpPut, seq, frame + kHeaderBytes, len);
      std::memcpy(frame, &csum, sizeof csum);
      frame[kOffOp] = kOpPut;
      std::memcpy(frame + kOffSeq, &seq, sizeof seq);
      std::memcpy(frame + kOffLen, &len, sizeof len);
    }
    const std::size_t bytes = n * kRecordBytes;
    if (std::fwrite(chunk, 1, bytes, file_) != bytes)
      fail_io("short write to", path_, errno);
    records = records.subspan(n);
  }
}

void WalWriter::sync() {
  if (std::fflush(file_) != 0) fail_io("flush failed for", path_, errno);
#if defined(__linux__)
  if (::fdatasync(::fileno(file_)) != 0)
    fail_io("fdatasync failed for", path_, errno);
#else
  if (::fsync(::fileno(file_)) != 0) fail_io("fsync failed for", path_, errno);
#endif
}

void read_wal_segment(
    const std::string& path,
    FunctionRef<void(std::uint64_t seq, const TraceRecord& rec)> fn) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec == std::errc::no_such_file_or_directory) return;
  if (ec) fail_io("cannot stat", path, ec.value());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail_io("cannot open", path, errno);
  // One read of the whole segment, sized by the file and not by any length
  // field in it. A read error throws rather than being taken for a torn
  // tail, which would cut durable records.
  std::string bytes(size, '\0');
  const bool short_read = std::fread(bytes.data(), 1, size, f) != size;
  std::fclose(f);
  if (short_read) fail_io("short read from", path, EIO);

  ByteReader in(bytes, "WAL segment");
  std::size_t valid_end = 0;
  while (in.remaining() >= kHeaderBytes) {
    const auto checksum = in.get<std::uint32_t>();
    const auto op = in.get<std::uint8_t>();
    const auto seq = in.get<std::uint64_t>();
    const auto len = in.get<std::uint32_t>();
    if (len > in.remaining()) break;
    const std::string_view body = in.view(len);
    if (record_checksum(op, seq, body.data(), len) != checksum ||
        op != kOpPut)
      break;
    if (len != sizeof(TraceRecord))
      throw std::runtime_error("WAL record " + std::to_string(seq) + " in " +
                               path + " has length " + std::to_string(len) +
                               ", want " +
                               std::to_string(sizeof(TraceRecord)));
    TraceRecord rec;
    std::memcpy(&rec, body.data(), sizeof rec);
    fn(seq, rec);
    valid_end = bytes.size() - in.remaining();
  }
  // Shrinking never rewrites the valid prefix, so a failure here cannot
  // lose a durable record; it throws std::filesystem::filesystem_error.
  if (valid_end != bytes.size())
    std::filesystem::resize_file(path, valid_end);
}

}  // namespace farmer::persist
