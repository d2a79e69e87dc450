#include "trace/trace_stream.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/hash.hpp"
#include "trace/trace_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace farmer {

namespace {

// The record section is reinterpreted in place from the mapping, so the
// stride baked into files is sizeof(TraceRecord); the u64 checksum words
// below additionally require the stride to stay word-aligned.
static_assert(sizeof(TraceRecord) % 8 == 0,
              "v3 trace format requires a word-aligned record stride");

constexpr std::uint64_t kChecksumSeed = 0x9E3779B97F4A7C15ull;

// v3 header field offsets (bytes); layout documented in trace_stream.hpp.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffRecordCount = 8;
constexpr std::size_t kOffRecordOffset = 16;
constexpr std::size_t kOffMetaOffset = 24;
constexpr std::size_t kOffFileSize = 32;
constexpr std::size_t kOffChecksum = 40;
constexpr std::size_t kOffKind = 48;
constexpr std::size_t kOffHasPaths = 49;
constexpr std::size_t kOffReserved = 50;

std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) noexcept {
  return mix64(h ^ w);
}

/// Finishes the chain over a file's payload: the total payload length plus
/// every header field the payload does not already pin down. A flip in any
/// header byte (or any payload byte, via the chain in `h`) changes the
/// result.
std::uint64_t finish_checksum(std::uint64_t h, std::uint64_t payload_bytes,
                              std::uint64_t record_count,
                              std::uint64_t meta_offset,
                              std::uint64_t file_size, std::uint8_t kind,
                              std::uint8_t has_paths) noexcept {
  h = mix_word(h, payload_bytes);
  h = mix_word(h, record_count);
  h = mix_word(h, meta_offset);
  h = mix_word(h, file_size);
  h = mix_word(h, static_cast<std::uint64_t>(kind) |
                      (static_cast<std::uint64_t>(has_paths) << 8));
  return h;
}

template <typename T>
void store(char* header, std::size_t off, T v) noexcept {
  std::memcpy(header + off, &v, sizeof v);
}

template <typename T>
T load(const char* base, std::size_t off) noexcept {
  T v;
  std::memcpy(&v, base + off, sizeof v);
  return v;
}

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw std::runtime_error(std::string(what) + ": " + path);
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(const std::string& path, TraceKind kind,
                         bool has_paths)
    : path_(path), hash_(kChecksumSeed), kind_(kind), has_paths_(has_paths) {
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) fail(path_, "cannot open trace for write");
  std::setvbuf(file_, nullptr, _IOFBF, 1u << 20);
  // Placeholder header: all zeroes, rejected by every reader. finish()
  // patches it, so a crashed writer never leaves a valid-looking file.
  const char zeros[kTraceV3HeaderBytes] = {};
  put_bytes(zeros, sizeof zeros);
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceWriter::put_bytes(const void* data, std::size_t len) {
  if (std::fwrite(data, 1, len, file_) != len)
    fail(path_, "short write to trace");
}

void TraceWriter::append(const TraceRecord& rec) {
  append(std::span<const TraceRecord>(&rec, 1));
}

void TraceWriter::append(std::span<const TraceRecord> records) {
  if (finished_) fail(path_, "append after finish");
  alignas(8) unsigned char chunk[128 * sizeof(TraceRecord)];
  while (!records.empty()) {
    const std::size_t n = std::min(records.size(), std::size_t{128});
    for (std::size_t i = 0; i < n; ++i)
      canonical_bytes(records[i], chunk + i * sizeof(TraceRecord));
    const std::size_t bytes = n * sizeof(TraceRecord);
    put_bytes(chunk, bytes);
    hash_ = mix_bytes(hash_, chunk, bytes);
    count_ += n;
    records = records.subspan(n);
  }
}

void TraceWriter::finish(std::string_view name,
                         const TraceDictionary& dict) {
  if (finished_) fail(path_, "finish called twice");
  finished_ = true;

  std::string meta;
  const auto name_len = static_cast<std::uint32_t>(name.size());
  meta.append(reinterpret_cast<const char*>(&name_len), sizeof name_len);
  meta.append(name);
  encode_dictionary(meta, dict);
  put_bytes(meta.data(), meta.size());

  const std::uint64_t record_bytes = count_ * sizeof(TraceRecord);
  const std::uint64_t meta_offset = kTraceV3HeaderBytes + record_bytes;
  const std::uint64_t file_size = meta_offset + meta.size();
  std::uint64_t h = mix_bytes(hash_, meta.data(), meta.size());
  h = finish_checksum(h, record_bytes + meta.size(), count_, meta_offset,
                      file_size, static_cast<std::uint8_t>(kind_),
                      has_paths_ ? 1 : 0);

  char header[kTraceV3HeaderBytes] = {};
  store(header, kOffMagic, kTraceMagic);
  store(header, kOffVersion, kTraceVersion3);
  store(header, kOffRecordCount, count_);
  store(header, kOffRecordOffset,
        static_cast<std::uint64_t>(kTraceV3HeaderBytes));
  store(header, kOffMetaOffset, meta_offset);
  store(header, kOffFileSize, file_size);
  store(header, kOffChecksum, h);
  store(header, kOffKind, static_cast<std::uint8_t>(kind_));
  store(header, kOffHasPaths, static_cast<std::uint8_t>(has_paths_ ? 1 : 0));

  if (std::fseek(file_, 0, SEEK_SET) != 0) fail(path_, "seek failed");
  put_bytes(header, sizeof header);
  const bool ok = std::fflush(file_) == 0 && std::ferror(file_) == 0;
  std::fclose(file_);
  file_ = nullptr;
  if (!ok) fail(path_, "flush failed for trace");
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path_, "cannot open trace for read");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path_, "cannot stat trace");
  }
  const auto actual_size = static_cast<std::uint64_t>(st.st_size);
  if (actual_size < kTraceV3HeaderBytes) {
    ::close(fd);
    fail(path_, "trace file truncated (no header)");
  }
  void* map = ::mmap(nullptr, actual_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) fail(path_, "cannot map trace");
  map_ = std::unique_ptr<void, Unmap>(map, Unmap{actual_size});
  ::madvise(map, actual_size, MADV_SEQUENTIAL);

  const char* b = static_cast<const char*>(map);
  if (load<std::uint32_t>(b, kOffMagic) != kTraceMagic)
    fail(path_, "not a farmer trace");
  if (load<std::uint32_t>(b, kOffVersion) != kTraceVersion3)
    fail(path_, "unsupported trace version");

  const auto record_count = load<std::uint64_t>(b, kOffRecordCount);
  const auto record_offset = load<std::uint64_t>(b, kOffRecordOffset);
  const auto meta_offset = load<std::uint64_t>(b, kOffMetaOffset);
  const auto file_size = load<std::uint64_t>(b, kOffFileSize);
  const auto checksum = load<std::uint64_t>(b, kOffChecksum);
  const auto kind_raw = load<std::uint8_t>(b, kOffKind);
  const auto has_paths_raw = load<std::uint8_t>(b, kOffHasPaths);

  // Header consistency before touching any payload: every count is pinned
  // to the size the file actually has, so a corrupt header cannot drive
  // an allocation or an out-of-bounds scan.
  if (record_offset != kTraceV3HeaderBytes)
    fail(path_, "trace record section offset corrupt");
  if (file_size != actual_size)
    fail(path_, "trace header size disagrees with file size");
  if (record_count > (file_size - kTraceV3HeaderBytes) / sizeof(TraceRecord))
    fail(path_, "trace record count exceeds file size");
  if (meta_offset !=
      kTraceV3HeaderBytes + record_count * sizeof(TraceRecord))
    fail(path_, "trace metadata offset corrupt");
  if (meta_offset > file_size)
    fail(path_, "trace metadata offset exceeds file size");
  for (std::size_t i = kOffReserved; i < kTraceV3HeaderBytes; ++i)
    if (b[i] != 0) fail(path_, "trace header reserved bytes corrupt");
  if (has_paths_raw > 1) fail(path_, "trace has_paths flag corrupt");
  kind_ = validate_trace_kind(kind_raw);
  has_paths_ = has_paths_raw != 0;

  const std::uint64_t payload_bytes = file_size - kTraceV3HeaderBytes;
  std::uint64_t h = mix_bytes(kChecksumSeed, b + kTraceV3HeaderBytes,
                              meta_offset - kTraceV3HeaderBytes);
  h = mix_bytes(h, b + meta_offset, file_size - meta_offset);
  h = finish_checksum(h, payload_bytes, record_count, meta_offset, file_size,
                      kind_raw, has_paths_raw);
  if (h != checksum) fail(path_, "trace file checksum mismatch");

  records_ = reinterpret_cast<const TraceRecord*>(b + kTraceV3HeaderBytes);
  count_ = record_count;

  ByteReader meta(std::string_view(b + meta_offset, file_size - meta_offset),
                  "trace metadata");
  const auto name_len = meta.get<std::uint32_t>();
  name_ = std::string(meta.view(name_len));
  dict_bytes_ = std::string_view(b + meta_offset + 4 + name_len,
                                 meta.remaining());
  dict_ = std::make_shared<TraceDictionary>();
  ByteReader dict_reader(dict_bytes_, "trace dictionary");
  decode_dictionary(dict_reader, *dict_);
  if (!dict_reader.done())
    fail(path_, "trailing bytes after trace dictionary");
}

void TraceReader::Unmap::operator()(void* addr) const noexcept {
  ::munmap(addr, len);
}

Trace TraceReader::materialize() const {
  Trace t;
  t.name = name_;
  t.kind = kind_;
  t.has_paths = has_paths_;
  // Deep-copy the dictionary: the returned Trace outlives this reader and
  // callers are free to mutate theirs.
  t.dict = std::make_shared<TraceDictionary>(*dict_);
  t.records.reserve(count_);
  for (const TraceRecord& r : records()) {
    validate_record(r, *t.dict);
    t.records.push_back(r);
  }
  return t;
}

// ---------------------------------------------------------------------------
// External k-way merge

std::uint64_t merge_trace_streams(std::span<const std::string> inputs,
                                  const std::string& out_path,
                                  std::string_view out_name) {
  if (inputs.empty())
    throw std::invalid_argument("merge_trace_streams: no inputs");

  std::vector<std::unique_ptr<TraceReader>> readers;
  readers.reserve(inputs.size());
  for (const std::string& p : inputs)
    readers.push_back(std::make_unique<TraceReader>(p));

  TraceKind kind = readers.front()->kind();
  bool has_paths = readers.front()->has_paths();
  for (std::size_t i = 1; i < readers.size(); ++i) {
    if (readers[i]->dict_bytes() != readers.front()->dict_bytes())
      throw std::runtime_error(
          "merge_trace_streams: inputs disagree on dictionary: " + inputs[i]);
    if (readers[i]->kind() != kind) kind = TraceKind::kCustom;
    has_paths = has_paths && readers[i]->has_paths();
  }

  std::vector<const TraceRecord*> cur(readers.size());
  std::vector<const TraceRecord*> end(readers.size());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    const auto span = readers[i]->records();
    cur[i] = span.data();
    end[i] = span.data() + span.size();
  }

  // Min-heap on (timestamp, input index). The index tie-break reproduces
  // std::stable_sort's order on the concatenated per-tenant streams, which
  // is what makes the streamed pipeline byte-identical to
  // make_multi_tenant_trace (see trace_stream.hpp).
  struct Head {
    SimTime t;
    std::uint32_t src;
  };
  const auto later = [](const Head& a, const Head& b) {
    return a.t != b.t ? a.t > b.t : a.src > b.src;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heap(later);
  for (std::size_t i = 0; i < readers.size(); ++i)
    if (cur[i] != end[i])
      heap.push({cur[i]->timestamp, static_cast<std::uint32_t>(i)});

  TraceWriter writer(out_path, kind, has_paths);
  while (!heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    writer.append(*cur[head.src]);
    if (++cur[head.src] != end[head.src]) {
      if (cur[head.src]->timestamp < head.t)
        throw std::runtime_error(
            "merge_trace_streams: input not time-ordered: " +
            inputs[head.src]);
      heap.push({cur[head.src]->timestamp, head.src});
    }
  }
  writer.finish(out_name, *readers.front()->dict());
  return writer.records_written();
}

}  // namespace farmer
