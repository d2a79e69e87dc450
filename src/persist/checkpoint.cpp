#include "persist/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/hash.hpp"
#include "core/farmer.hpp"
#include "trace/trace_io.hpp"

namespace farmer::persist {

namespace {

template <typename T>
void put_raw(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Bounds-checked forward reader over a serialized blob; any overrun means
/// the blob is torn or malformed, which surfaces as std::runtime_error.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (static_cast<std::size_t>(end_ - p_) < sizeof(T))
      throw std::runtime_error("checkpoint blob truncated");
    T v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }

  void get_bytes(char* dst, std::size_t len) {
    if (static_cast<std::size_t>(end_ - p_) < len)
      throw std::runtime_error("checkpoint blob truncated");
    std::memcpy(dst, p_, len);
    p_ += len;
  }

  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

/// mix64 chain over arbitrary bytes, folding whole words then the tail.
std::uint64_t checksum_bytes(std::string_view bytes) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    h = mix64(h ^ word);
    p += sizeof word;
    n -= sizeof word;
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  return mix64(h ^ tail ^ bytes.size());
}

/// Throws "checkpoint: <what> <path>: <strerror> (errno N)".
[[noreturn]] void fail_io(const char* what, const std::string& path,
                          int err) {
  throw std::runtime_error("checkpoint: " + std::string(what) + " " + path +
                           ": " + std::strerror(err) + " (errno " +
                           std::to_string(err) + ")");
}

void put_file(std::FILE* f, const void* data, std::size_t len,
              const std::string& path) {
  if (len > 0 && std::fwrite(data, 1, len, f) != len)
    fail_io("short write to", path, errno);
}

/// fsync the directory containing `path` so a rename inside it is durable.
void fsync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) fail_io("cannot open directory", dir, errno);
  const int sync_err = ::fsync(fd) == 0 ? 0 : errno;
  const int close_err = ::close(fd) == 0 ? 0 : errno;
  if (sync_err != 0) fail_io("fsync failed for directory", dir, sync_err);
  if (close_err != 0) fail_io("close failed for directory", dir, close_err);
#else
  (void)path;
#endif
}

/// Checkpoints embed the dictionary through the shared v3 codec
/// (encode_dictionary) since checkpoint v2 — the legacy v2 stream codec
/// could not represent >255-component paths.
std::string serialize_dictionary(const TraceDictionary* dict) {
  if (dict == nullptr) return {};
  std::string out;
  encode_dictionary(out, *dict);
  return out;
}

/// Writes `[magic][version][u64 body_len][body][u64 checksum]` to `path`
/// atomically: bytes land in `path + ".tmp"`, are flushed and fsync'd, and
/// the tmp is renamed over `path` (with a parent-directory fsync). The
/// shared framing behind checkpoints and the manifest. Every write, flush,
/// fsync and close is checked: on any failure the tmp file is removed, the
/// rename is skipped and std::runtime_error names the path and errno, so a
/// torn file is never published.
void write_framed_atomic(const std::string& path, std::uint32_t magic,
                         std::uint32_t version, std::string_view body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail_io("cannot open", tmp, errno);
  try {
    put_file(f, &magic, sizeof magic, tmp);
    put_file(f, &version, sizeof version, tmp);
    const std::uint64_t body_len = body.size();
    put_file(f, &body_len, sizeof body_len, tmp);
    put_file(f, body.data(), body.size(), tmp);
    const std::uint64_t csum = checksum_bytes(body);
    put_file(f, &csum, sizeof csum, tmp);
    if (std::fflush(f) != 0) fail_io("flush failed for", tmp, errno);
#if defined(__unix__) || defined(__APPLE__)
    if (::fsync(::fileno(f)) != 0) fail_io("fsync failed for", tmp, errno);
#endif
  } catch (...) {
    std::fclose(f);
    std::remove(tmp.c_str());
    throw;
  }
  if (std::fclose(f) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail_io("close failed for", tmp, err);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail_io("rename failed for", path, err);
  }
  fsync_parent_dir(path);
}

/// Reads a file written by write_framed_atomic. Returns std::nullopt when
/// the file is absent, torn, truncated, or fails its checksum.
std::optional<std::string> read_framed(const std::string& path,
                                       std::uint32_t want_magic,
                                       std::uint32_t want_version) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  const auto read_or = [f](void* dst, std::size_t len) {
    return std::fread(dst, 1, len, f) == len;
  };
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t body_len = 0;
  if (!read_or(&magic, sizeof magic) || magic != want_magic ||
      !read_or(&version, sizeof version) || version != want_version ||
      !read_or(&body_len, sizeof body_len) || file_size < 0 ||
      body_len > static_cast<std::uint64_t>(file_size)) {
    std::fclose(f);
    return std::nullopt;
  }
  std::string body(body_len, '\0');
  std::uint64_t stored_csum = 0;
  if (!read_or(body.data(), body.size()) ||
      !read_or(&stored_csum, sizeof stored_csum)) {
    std::fclose(f);
    return std::nullopt;
  }
  std::fclose(f);
  if (checksum_bytes(body) != stored_csum) return std::nullopt;
  return body;
}

}  // namespace

std::uint64_t config_hash(const FarmerConfig& cfg) {
  std::uint64_t h = kCheckpointMagic;
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  std::uint64_t bits;
  std::memcpy(&bits, &cfg.p, sizeof bits);
  fold(bits);
  std::memcpy(&bits, &cfg.max_strength, sizeof bits);
  fold(bits);
  fold(cfg.window);
  std::memcpy(&bits, &cfg.lda_delta, sizeof bits);
  fold(bits);
  fold(cfg.attributes.bits());
  fold(static_cast<std::uint64_t>(cfg.path_mode));
  fold(cfg.max_successors);
  fold(cfg.correlator_capacity);
  return h;
}

std::string serialize_shard(const Farmer& shard) {
  std::string out;

  put_raw<std::uint64_t>(out, shard.request_count());
  const CoMinerStats& ms = shard.miner_stats();
  put_raw<std::uint64_t>(out, ms.pairs_evaluated);
  put_raw<std::uint64_t>(out, ms.pairs_accepted);
  put_raw<std::uint64_t>(out, ms.pairs_filtered);

  // Access window, oldest -> newest (push order on restore).
  const AccessWindow& w = shard.access_window();
  put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(w.size()));
  for (std::size_t i = w.size(); i-- > 0;)
    put_raw<std::uint32_t>(out, w.at(i).value());

  // Per-file semantic state: logical index size, then populated entries.
  put_raw<std::uint64_t>(out, shard.state_size());
  std::uint64_t populated = 0;
  shard.for_each_file_state(
      [&](FileId, const SemanticVector&, const Signature&) { ++populated; });
  put_raw<std::uint64_t>(out, populated);
  shard.for_each_file_state([&](FileId f, const SemanticVector& vec,
                                const Signature& sig) {
    put_raw<std::uint32_t>(out, f.value());
    put_raw<std::uint32_t>(out, vec.user.value());
    put_raw<std::uint32_t>(out, vec.process.value());
    put_raw<std::uint32_t>(out, vec.host.value());
    put_raw<std::uint32_t>(out, vec.dev.value());
    put_raw<std::uint32_t>(out, vec.fid.value());
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(
                                    vec.path_components.size()));
    for (TokenId t : vec.path_components)
      put_raw<std::uint32_t>(out, t.value());
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(sig.items.size()));
    for (TokenId t : sig.items) put_raw<std::uint32_t>(out, t.value());
    put_raw<std::uint32_t>(out,
                           static_cast<std::uint32_t>(sig.path_sorted.size()));
    for (TokenId t : sig.path_sorted) put_raw<std::uint32_t>(out, t.value());
    put_raw<std::uint8_t>(out, sig.ipa_path ? 1 : 0);
  });

  // Correlation graph: logical node-index size, then populated nodes with
  // successor edges and Correlator Lists in stored order (edge order decides
  // eviction ties; list order is the query output).
  const CorrelationGraph& g = shard.graph();
  put_raw<std::uint64_t>(out, g.node_count());
  std::uint64_t nodes = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.has_node(FileId(static_cast<std::uint32_t>(i)))) ++nodes;
  put_raw<std::uint64_t>(out, nodes);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const FileId f(static_cast<std::uint32_t>(i));
    if (!g.has_node(f)) continue;
    put_raw<std::uint32_t>(out, f.value());
    put_raw<std::uint64_t>(out, g.access_count(f));
    const auto& succs = g.successors(f);
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(succs.size()));
    for (const SuccessorEdge& e : succs) {
      put_raw<std::uint32_t>(out, e.successor.value());
      put_raw<float>(out, e.nab);
    }
    const auto& corr = g.correlators(f);
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(corr.size()));
    for (const Correlator& c : corr) {
      put_raw<std::uint32_t>(out, c.file.value());
      put_raw<float>(out, c.degree);
    }
  }
  return out;
}

void deserialize_shard(std::string_view blob, Farmer& shard) {
  Cursor in(blob);

  const auto requests = in.get<std::uint64_t>();
  CoMinerStats stats;
  stats.pairs_evaluated = in.get<std::uint64_t>();
  stats.pairs_accepted = in.get<std::uint64_t>();
  stats.pairs_filtered = in.get<std::uint64_t>();
  shard.restore_counters(requests, stats);

  const auto window_count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < window_count; ++i)
    shard.restore_window_push(FileId(in.get<std::uint32_t>()));

  const auto state_size = in.get<std::uint64_t>();
  const auto populated = in.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < populated; ++i) {
    const FileId f(in.get<std::uint32_t>());
    SemanticVector vec;
    vec.user = TokenId(in.get<std::uint32_t>());
    vec.process = TokenId(in.get<std::uint32_t>());
    vec.host = TokenId(in.get<std::uint32_t>());
    vec.dev = TokenId(in.get<std::uint32_t>());
    vec.fid = TokenId(in.get<std::uint32_t>());
    const auto npath = in.get<std::uint32_t>();
    for (std::uint32_t c = 0; c < npath; ++c)
      vec.path_components.push_back(TokenId(in.get<std::uint32_t>()));
    Signature sig;
    const auto nitems = in.get<std::uint32_t>();
    for (std::uint32_t c = 0; c < nitems; ++c)
      sig.items.push_back(TokenId(in.get<std::uint32_t>()));
    const auto nsorted = in.get<std::uint32_t>();
    for (std::uint32_t c = 0; c < nsorted; ++c)
      sig.path_sorted.push_back(TokenId(in.get<std::uint32_t>()));
    sig.ipa_path = in.get<std::uint8_t>() != 0;
    shard.restore_file_state(f, vec, sig);
  }

  const auto node_index = in.get<std::uint64_t>();
  const auto nodes = in.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < nodes; ++i) {
    const FileId f(in.get<std::uint32_t>());
    const auto access_count = in.get<std::uint64_t>();
    std::vector<SuccessorEdge> succs(in.get<std::uint32_t>());
    for (SuccessorEdge& e : succs) {
      e.successor = FileId(in.get<std::uint32_t>());
      e.nab = in.get<float>();
    }
    std::vector<Correlator> corr(in.get<std::uint32_t>());
    for (Correlator& c : corr) {
      c.file = FileId(in.get<std::uint32_t>());
      c.degree = in.get<float>();
    }
    shard.restore_graph_node(f, access_count, succs, corr);
  }

  // Restore the dense-index logical sizes last: restore_* calls above grew
  // both stores to the highest populated id; this grows them the rest of
  // the way to the checkpointed logical sizes (touch()-only slots).
  shard.restore_sizes(state_size, node_index);

  if (!in.done())
    throw std::runtime_error("checkpoint shard blob has trailing bytes");
}

void write_checkpoint_file(const std::string& path, std::uint64_t seq,
                           const FarmerConfig& cfg,
                           const TraceDictionary* dict,
                           std::span<const std::string> shard_blobs) {
  std::string body;
  put_raw<std::uint64_t>(body, seq);
  put_raw<std::uint64_t>(body, config_hash(cfg));
  const std::string dict_bytes = serialize_dictionary(dict);
  put_raw<std::uint64_t>(body, dict_bytes.size());
  body += dict_bytes;
  put_raw<std::uint32_t>(body, static_cast<std::uint32_t>(shard_blobs.size()));
  for (const std::string& blob : shard_blobs) {
    put_raw<std::uint64_t>(body, blob.size());
    body += blob;
  }
  write_framed_atomic(path, kCheckpointMagic, kCheckpointVersion, body);
}

void write_manifest(const std::string& dir, const FarmerConfig& cfg,
                    const TraceDictionary* dict) {
  const std::string path = dir + "/MANIFEST";
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) return;
  std::string body;
  put_raw<std::uint64_t>(body, config_hash(cfg));
  put_raw<std::uint8_t>(body, dict != nullptr ? 1 : 0);
  put_raw<std::uint64_t>(
      body, dict != nullptr ? checksum_bytes(serialize_dictionary(dict)) : 0);
  write_framed_atomic(path, kManifestMagic, kManifestVersion, body);
}

void check_manifest(const std::string& dir, const FarmerConfig& cfg,
                    const TraceDictionary* dict) {
  const std::string path = dir + "/MANIFEST";
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return;
  // The manifest is written atomically, so an unreadable one is damage, not
  // a torn write — there is no older manifest to fall back to, and replaying
  // the directory unchecked could corrupt the model, so it throws.
  const std::optional<std::string> body =
      read_framed(path, kManifestMagic, kManifestVersion);
  if (!body)
    throw std::runtime_error("persist manifest " + path + " is unreadable");
  Cursor in(*body);
  const auto stored_cfg_hash = in.get<std::uint64_t>();
  const auto has_dict = in.get<std::uint8_t>();
  const auto stored_dict_hash = in.get<std::uint64_t>();
  if (!in.done())
    throw std::runtime_error("persist manifest " + path + " is unreadable");
  if (stored_cfg_hash != config_hash(cfg))
    throw std::runtime_error(
        "persist directory " + dir +
        " was created under a different mining configuration");
  if (has_dict != 0 && dict != nullptr &&
      stored_dict_hash != checksum_bytes(serialize_dictionary(dict)))
    throw std::runtime_error("persist directory " + dir +
                             " is bound to a different trace dictionary");
}

void write_checkpoint_dir(const std::string& dir, std::uint64_t seq,
                          const FarmerConfig& cfg, const TraceDictionary* dict,
                          std::span<const Farmer* const> shards) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> blobs;
  blobs.reserve(shards.size());
  for (const Farmer* shard : shards) blobs.push_back(serialize_shard(*shard));
  write_checkpoint_file(dir + "/CHECKPOINT." + std::to_string(seq), seq, cfg,
                        dict, blobs);
}

std::optional<LoadedCheckpoint> read_checkpoint_file(
    const std::string& path, const FarmerConfig& cfg,
    const TraceDictionary* dict) {
  const std::optional<std::string> body =
      read_framed(path, kCheckpointMagic, kCheckpointVersion);
  if (!body) return std::nullopt;

  // The body verified: from here on mismatches are deliberate incompat, not
  // torn writes, so they throw instead of falling back.
  Cursor in(*body);
  LoadedCheckpoint out;
  out.seq = in.get<std::uint64_t>();
  const auto stored_cfg_hash = in.get<std::uint64_t>();
  if (stored_cfg_hash != config_hash(cfg))
    throw std::runtime_error(
        "checkpoint " + path +
        " was written under a different mining configuration");
  const auto dict_len = in.get<std::uint64_t>();
  std::string dict_bytes(dict_len, '\0');
  in.get_bytes(dict_bytes.data(), dict_bytes.size());
  if (dict != nullptr && dict_len > 0 &&
      dict_bytes != serialize_dictionary(dict))
    throw std::runtime_error("checkpoint " + path +
                             " embeds a different trace dictionary");
  const auto shard_count = in.get<std::uint32_t>();
  out.shard_blobs.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const auto blob_len = in.get<std::uint64_t>();
    std::string blob(blob_len, '\0');
    in.get_bytes(blob.data(), blob.size());
    out.shard_blobs.push_back(std::move(blob));
  }
  return out;
}

}  // namespace farmer::persist
