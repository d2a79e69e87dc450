// Trace record model.
//
// A trace is a time-ordered stream of metadata-bearing file requests plus a
// dictionary interning every string the records reference. Records carry
// pre-interned tokens so the FARMER Extracting stage is allocation-free.
//
// The dictionary also stores per-file ground truth (the correlation group a
// file was generated into), which the test suite and the accuracy benches
// use as an oracle; real traces simply leave it at kNoGroup.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.hpp"
#include "common/small_vector.hpp"
#include "common/types.hpp"

namespace farmer {

enum class OpType : std::uint8_t {
  kOpen,   ///< metadata lookup + open
  kRead,
  kWrite,
  kStat,   ///< pure metadata access
  kClose,
};

/// Which published trace a synthetic workload models.
enum class TraceKind : std::uint8_t { kLLNL, kINS, kRES, kHP, kCustom };

[[nodiscard]] const char* trace_kind_name(TraceKind k) noexcept;

/// The paper trace whose trace_kind_name() is `name`: "LLNL", "INS", "RES"
/// or "HP", matched exactly. nullopt for any other string, "CUSTOM"
/// included.
[[nodiscard]] std::optional<TraceKind> parse_trace_kind(
    std::string_view name) noexcept;

/// One file request.
struct TraceRecord {
  SimTime timestamp = 0;      ///< microseconds since trace start
  FileId file;
  UserId user;
  ProcessId process;          ///< unique per process instance (pid)
  HostId host;
  JobId job;                  ///< parallel job (LLNL), else invalid
  PathId path;                ///< invalid when the trace lacks path info
  TokenId user_token;         ///< interned user name
  TokenId process_token;      ///< interned pid string
  TokenId host_token;         ///< interned host name
  TokenId dev_token;          ///< interned device id ("File ID" locality)
  TokenId fid_token;          ///< interned per-file id ("File ID" identity)
  TokenId program_token;      ///< interned program name
  std::uint32_t size_bytes = 0;
  OpType op = OpType::kOpen;
};

inline constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

/// Static per-file facts.
struct FileMeta {
  PathId path;                 ///< invalid when no namespace info
  TokenId dev;
  TokenId fid;
  std::uint32_t group = kNoGroup;  ///< ground-truth correlation group
  std::uint32_t size_bytes = 0;
  bool read_only = false;
};

/// Interned strings + per-path components + per-file metadata.
struct TraceDictionary {
  Interner tokens;
  /// Path components (dirs + filename) indexed by PathId value.
  std::vector<SmallVector<TokenId, 8>> paths;
  /// Per-file static metadata indexed by FileId value.
  std::vector<FileMeta> files;

  [[nodiscard]] PathId add_path(SmallVector<TokenId, 8> components) {
    paths.push_back(std::move(components));
    return PathId(static_cast<std::uint32_t>(paths.size() - 1));
  }

  [[nodiscard]] const SmallVector<TokenId, 8>& path_components(
      PathId p) const {
    return paths.at(p.value());
  }

  /// Rebuilds the full path string ("/a/b/c") for reporting.
  [[nodiscard]] std::string path_string(PathId p) const;
};

/// A complete trace: header facts, record stream, shared dictionary.
struct Trace {
  std::string name;
  TraceKind kind = TraceKind::kCustom;
  bool has_paths = false;
  std::vector<TraceRecord> records;
  std::shared_ptr<TraceDictionary> dict;

  [[nodiscard]] std::size_t file_count() const {
    return dict ? dict->files.size() : 0;
  }
  [[nodiscard]] std::size_t event_count() const { return records.size(); }
  [[nodiscard]] SimTime duration() const {
    return records.empty() ? 0 : records.back().timestamp;
  }
};

}  // namespace farmer
