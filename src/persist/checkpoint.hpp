// Checkpoint serialization for the durable persistence subsystem.
//
// A checkpoint is a versioned, checksummed, self-describing snapshot of the
// full miner model: per shard, each file's correlation-graph node
// (successor edges and Correlator List in stored order) with its signature,
// the CoMiner counters and the access window; plus the embedded trace
// dictionary. It is written atomically (tmp file + flush + fsync + rename),
// so a crash during a checkpoint leaves the previous one intact, and it
// captures enough state that checkpoint-load followed by WAL-tail replay is
// byte-identical to replaying the full record history (the kill-and-recover
// differential test pins this down).
//
// File layout (little-endian):
//
//   [u32 magic][u32 version][u64 body_len][body...][u64 checksum]
//
//   body := u64 seq            records covered by this checkpoint
//           u64 config_hash    canonical FarmerConfig fingerprint
//           u64 dict_len       embedded dictionary (0 = none; the shared
//                              v3 codec, trace_io encode_dictionary)
//           dict bytes
//           u32 shard_count
//           shard_count x (u64 blob_len, blob bytes)
//
//   blob := u64 requests, u64 pairs_evaluated, u64 pairs_accepted,
//           u64 pairs_filtered     CoMiner counters
//           u32 n, n x u32 file    access window, oldest first
//           u64 node_index         logical size of the dense per-file index
//           u64 nodes              populated files, then per file in
//                                  FileId order:
//             u32 file, u64 access_count,
//             u32 n, n x (u32 successor, f32 nab)     stored edge order
//             u32 n, n x (u32 file, f32 degree)       Correlator List order
//             u32 n, n x u32 item                     Signature::items()
//             u32 n, n x u32 token                    Signature::path_sorted()
//             u8 ipa_path                             Signature::ipa_path()
//
// The checksum is a mix64 chain over the body, so torn or bit-flipped
// checkpoints are detected on load and recovery falls back to the previous
// checkpoint (see persist::recover_dir). An intact checkpoint of another
// format version is not torn: reading it throws.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "trace/record.hpp"

namespace farmer {

class Farmer;

namespace persist {

inline constexpr std::uint32_t kCheckpointMagic = 0xFA12C4E7;
/// v2: the embedded dictionary moved from the legacy v2 stream codec to the
/// shared v3 codec (u32 path-component counts).
/// v3: the shard blob writes each populated file once, graph node and
/// signature together, and no longer carries the raw semantic vector.
/// Files of any other version are rejected with std::runtime_error.
inline constexpr std::uint32_t kCheckpointVersion = 3;
inline constexpr std::uint32_t kManifestMagic = 0xFA12B14D;
inline constexpr std::uint32_t kManifestVersion = 2;

/// Canonical fingerprint over every FarmerConfig field. Stored in the
/// checkpoint and verified on load: restoring a model mined under different
/// parameters would silently corrupt query results, so a mismatch throws.
[[nodiscard]] std::uint64_t config_hash(const FarmerConfig& cfg);

/// Serializes one Farmer shard's full model state (single-threaded
/// contract: no ingest on the shard while it runs).
[[nodiscard]] std::string serialize_shard(const Farmer& shard);

/// Restores a blob produced by serialize_shard into `shard`, which must be
/// freshly constructed with the same config. Throws std::runtime_error on
/// truncated or malformed blobs.
void deserialize_shard(std::string_view blob, Farmer& shard);

/// Writes `dir + "/MANIFEST"` atomically if it does not exist yet: the
/// config hash plus a hash of the serialized dictionary. The manifest binds
/// a persist directory to its config + dictionary from the *first* open —
/// checkpoints carry the same binding, but a directory killed before its
/// first checkpoint holds only WAL segments, and without the manifest a
/// reopen under a different trace would replay foreign records into a
/// mismatched model. A present manifest is left untouched.
void write_manifest(const std::string& dir, const FarmerConfig& cfg,
                    const TraceDictionary* dict);

/// Validates `dir + "/MANIFEST"` against `cfg`/`dict`. An absent manifest
/// passes (empty directory, or one populated only by save()). Throws
/// std::runtime_error when the manifest is unreadable or records a
/// different config hash / dictionary hash. `dict == nullptr` skips the
/// dictionary comparison, as does a manifest written without a dictionary.
void check_manifest(const std::string& dir, const FarmerConfig& cfg,
                    const TraceDictionary* dict);

/// A checksum-validated checkpoint as read back from disk.
struct LoadedCheckpoint {
  std::uint64_t seq = 0;                 ///< records the checkpoint covers
  std::vector<std::string> shard_blobs;  ///< one blob per shard, in order
};

/// The one checkpoint writer, behind every backend's save(): creates `dir`
/// if needed, serializes the given live shards and writes
/// `dir + "/CHECKPOINT.<seq>"` atomically — the bytes land in a `.tmp`
/// file, are flushed and fsync'd, and the tmp is renamed over the target
/// (with a directory fsync so the rename itself is durable). Throws
/// std::system_error on I/O failure and publishes nothing.
void write_checkpoint_dir(const std::string& dir, std::uint64_t seq,
                          const FarmerConfig& cfg, const TraceDictionary* dict,
                          std::span<const Farmer* const> shards);

/// Reads and validates one checkpoint file. Returns std::nullopt when the
/// file is torn, truncated, or fails its checksum (recovery then falls back
/// to an older checkpoint). Throws std::runtime_error when the checkpoint is
/// *valid but incompatible* — another format version, a config hash
/// mismatch, or an embedded dictionary that differs from `dict` — because
/// silently ignoring those would corrupt the restored model. `dict ==
/// nullptr` skips the dictionary comparison.
[[nodiscard]] std::optional<LoadedCheckpoint> read_checkpoint_file(
    const std::string& path, const FarmerConfig& cfg,
    const TraceDictionary* dict);

}  // namespace persist
}  // namespace farmer
