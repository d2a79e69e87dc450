#include "kvstore/log_store.hpp"

#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/hash.hpp"

namespace farmer {

namespace {

// Pushes `f`'s already-flushed bytes to stable storage. No-op on platforms
// without fdatasync/fsync; durability there degrades to the page cache.
void fsync_file(std::FILE* f) {
#if defined(__linux__)
  ::fdatasync(::fileno(f));
#elif defined(__unix__) || defined(__APPLE__)
  ::fsync(::fileno(f));
#else
  (void)f;
#endif
}

// The only record kind; replay treats any other op byte as corruption.
constexpr std::uint8_t kOpPut = 1;

// Record: [u32 checksum][u8 op][u64 key][u32 len][len bytes]
struct RecordHeader {
  std::uint32_t checksum;
  std::uint8_t op;
  std::uint64_t key;
  std::uint32_t len;
};

// Word-wise mix64 chain (the value length is folded into the seed so a
// zero-padded final word cannot alias a shorter value). Hashing 8 bytes
// per mix instead of 1 keeps the checksum off the WAL append's critical
// path for record-sized values.
std::uint32_t checksum_of(std::uint8_t op, std::uint64_t key,
                          std::string_view value) {
  std::uint64_t h = mix64(key ^ (static_cast<std::uint64_t>(op) << 56) ^
                          (value.size() * 0x9E3779B97F4A7C15ull));
  const char* p = value.data();
  std::size_t n = value.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = mix64(h ^ w);
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = mix64(h ^ w);
  }
  return static_cast<std::uint32_t>(h);
}

}  // namespace

LogStore::LogStore(std::string path, Durability durability,
                   IndexMode index_mode)
    : path_(std::move(path)),
      durability_(durability),
      index_mode_(index_mode) {
  replay();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr)
    throw std::runtime_error("LogStore: cannot open " + path_);
}

LogStore::~LogStore() {
  if (file_ != nullptr) std::fclose(file_);
}

void LogStore::replay() {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return;  // fresh store
  const std::uintmax_t file_size = std::filesystem::file_size(path_);
  long valid_end = 0;
  for (;;) {
    RecordHeader h{};
    if (std::fread(&h.checksum, sizeof h.checksum, 1, f) != 1) break;
    if (std::fread(&h.op, sizeof h.op, 1, f) != 1) break;
    if (std::fread(&h.key, sizeof h.key, 1, f) != 1) break;
    if (std::fread(&h.len, sizeof h.len, 1, f) != 1) break;
    // A length running past the end of the file marks a torn or corrupt
    // record. Bound it before allocating: one flipped byte in the field
    // would otherwise ask for up to 4 GiB.
    const long value_begin = std::ftell(f);
    if (value_begin < 0 ||
        h.len > file_size - static_cast<std::uintmax_t>(value_begin))
      break;
    std::string value(h.len, '\0');
    if (h.len > 0 && std::fread(value.data(), 1, h.len, f) != h.len) break;
    if (checksum_of(h.op, h.key, value) != h.checksum) break;  // torn tail
    if (h.op != kOpPut) break;  // unknown op: treat as corruption
    if (index_mode_ == IndexMode::kIndexed) index_[h.key] = std::move(value);
    ++recovered_;
    valid_end = std::ftell(f);
  }
  std::fclose(f);
  // Cut any torn tail in place so future appends start at a clean
  // boundary. Shrinking never rewrites the valid prefix, so a failure
  // cannot lose a durable record; it throws
  // std::filesystem::filesystem_error.
  if (valid_end >= 0 && file_size != static_cast<std::uintmax_t>(valid_end))
    std::filesystem::resize_file(path_,
                                 static_cast<std::uintmax_t>(valid_end));
}

void LogStore::append(std::uint64_t key, std::string_view value) {
  const std::uint32_t csum = checksum_of(kOpPut, key, value);
  const auto len = static_cast<std::uint32_t>(value.size());
  // One fwrite per record: stdio locks the FILE per call, so five small
  // writes cost five lock round-trips on the WAL append path.
  write_buf_.clear();
  write_buf_.append(reinterpret_cast<const char*>(&csum), sizeof csum);
  write_buf_.push_back(static_cast<char>(kOpPut));
  write_buf_.append(reinterpret_cast<const char*>(&key), sizeof key);
  write_buf_.append(reinterpret_cast<const char*>(&len), sizeof len);
  write_buf_.append(value.data(), value.size());
  std::fwrite(write_buf_.data(), 1, write_buf_.size(), file_);
}

void LogStore::put(std::uint64_t key, std::string_view value) {
  append(key, value);
  if (index_mode_ == IndexMode::kIndexed) index_[key] = std::string(value);
}

std::optional<std::string> LogStore::get(std::uint64_t key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void LogStore::scan(
    std::uint64_t lo, std::uint64_t hi,
    const std::function<bool(std::uint64_t, std::string_view)>& fn) const {
  // The hash index is unordered; materialise an ordered view for the scan.
  std::map<std::uint64_t, const std::string*> ordered;
  for (const auto& [k, v] : index_)
    if (k >= lo && k <= hi) ordered.emplace(k, &v);
  for (const auto& [k, v] : ordered)
    if (!fn(k, *v)) return;
}

void LogStore::sync() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  if (durability_ == Durability::kFsync) fsync_file(file_);
}

}  // namespace farmer
