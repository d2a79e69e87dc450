// Metadata server (MDS) — the HUSt component FARMER plugs into.
//
// The MDS serves metadata lookups from a bounded cache. A miss goes to a
// disk/DB service station and costs `db_fetch_time`: that is the whole
// model of HUSt's Berkeley DB lookup, since no output reads the record.
// After answering a demand request the MDS consults its predictor and issues
// a *batched* prefetch for the predicted correlator group at low priority —
// the paper's two-queue, demand-over-prefetch scheduling model (Section 4.1).
//
// Duplicate suppression: requests for a file already being fetched (demand
// or prefetch) join the in-flight operation instead of re-hitting the disk.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/metadata_cache.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "prefetch/predictor.hpp"
#include "sim/service_station.hpp"
#include "sim/simulator.hpp"

namespace farmer {

struct MdsConfig {
  std::size_t cache_capacity = 1024;  ///< LRU metadata-cache entries
  std::size_t prefetch_degree = 4;
  unsigned disk_servers = 1;
  SimTime cpu_time = 30;            ///< µs per request (hit path)
  SimTime db_fetch_time = 1500;     ///< µs mean per random DB/disk fetch
  SimTime db_fetch_jitter = 400;    ///< uniform +- jitter
  SimTime seq_fetch_time = 250;     ///< µs per extra entry in a batched
                                    ///< prefetch (correlated files laid out
                                    ///< contiguously, Section 4.2)
  bool batch_prefetch = true;       ///< single I/O per correlator group
};

class MdsServer {
 public:
  using ResponseFn = std::function<void(SimTime response_time_us)>;

  MdsServer(Simulator& sim, MdsConfig cfg, Predictor& predictor);

  /// Client-facing entry point: a demand metadata request for `rec.file`
  /// arriving now. `respond` fires when the reply leaves the MDS.
  void handle_demand(const TraceRecord& rec, ResponseFn respond);

  /// Drops `f` from the cache if resident (metadata changed under the MDS:
  /// file deleted/recreated — the serving harness's population-churn
  /// events). A fetch already in flight is unaffected: its completion
  /// re-inserts the entry, modelling the post-change re-fetch.
  void invalidate(FileId f) { cache_.erase(f); }

  [[nodiscard]] const MetadataCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ServiceStation& disk() const noexcept { return disk_; }
  [[nodiscard]] std::uint64_t prefetch_batches() const noexcept {
    return prefetch_batches_;
  }
  [[nodiscard]] std::uint64_t duplicate_suppressed() const noexcept {
    return duplicate_suppressed_;
  }

 private:
  /// One disk fetch duration (randomised around the mean).
  [[nodiscard]] SimTime fetch_time();

  void issue_prefetch(const TraceRecord& rec);

  Simulator& sim_;
  MdsConfig cfg_;
  Predictor& predictor_;
  MetadataCache cache_;
  ServiceStation disk_;
  Rng rng_;

  // In-flight fetches: file -> callbacks waiting for it to land.
  std::unordered_map<FileId, std::vector<ResponseFn>> inflight_;
  std::uint64_t prefetch_batches_ = 0;
  std::uint64_t duplicate_suppressed_ = 0;
};

}  // namespace farmer
