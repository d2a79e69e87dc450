// Prefetch-aware metadata cache.
//
// The MDS cache holds metadata entries keyed by FileId, enforces a fixed
// entry capacity with LRU replacement — the paper's baseline MDS cache —
// and distinguishes demand-fetched from prefetched entries so the
// experiments can report:
//
//   * demand hit ratio       — the paper's "cache hit ratio" (Figs 3/5/7)
//   * prefetch accuracy      — prefetched entries that served a demand hit
//                              before eviction / prefetched entries (Tab 3)
//   * cache pollution        — prefetched entries evicted unused
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace farmer {

struct CacheStats {
  RatioCounter demand;             ///< hits/accesses of demand requests
  std::uint64_t prefetch_inserted = 0;
  std::uint64_t prefetch_used = 0;      ///< first demand hit on a prefetch
  std::uint64_t prefetch_evicted_unused = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_ratio() const noexcept { return demand.ratio(); }
  [[nodiscard]] double prefetch_accuracy() const noexcept {
    return prefetch_inserted
               ? static_cast<double>(prefetch_used) /
                     static_cast<double>(prefetch_inserted)
               : 0.0;
  }
  [[nodiscard]] double pollution_ratio() const noexcept {
    return prefetch_inserted
               ? static_cast<double>(prefetch_evicted_unused) /
                     static_cast<double>(prefetch_inserted)
               : 0.0;
  }
};

class MetadataCache {
 public:
  /// A capacity of 0 is clamped to 1.
  explicit MetadataCache(std::size_t capacity);

  /// Demand access. Returns true on hit (the entry becomes most recently
  /// used). On miss the caller is expected to fetch and call
  /// `insert_demand` (the cache does not auto-populate, since in the DES the
  /// fetch has latency).
  bool access(FileId f);

  /// Inserts a demand-fetched entry (no-op if present), evicting the least
  /// recently used entry when full.
  void insert_demand(FileId f);

  /// Inserts a prefetched entry. Returns false (and counts nothing) if the
  /// entry is already resident — an already-cached prediction costs nothing
  /// and earns nothing. Evicts as needed.
  bool insert_prefetch(FileId f);

  /// Whether `f` is resident (no recency update, no stats).
  [[nodiscard]] bool contains(FileId f) const noexcept;

  /// Invalidates an entry if resident (metadata updates in the MDS).
  void erase(FileId f);

  /// Zeroes the counters without touching residency (warm-up support).
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Slot {
    std::list<FileId>::iterator pos;  ///< place in `order_`
    bool unused_prefetch;  ///< came from prefetch, no demand hit yet
  };

  void insert(FileId f, bool prefetched);
  /// Removes a resident entry, counting it as polluting when it was an
  /// unused prefetch.
  void remove(std::unordered_map<FileId, Slot>::iterator it);

  std::size_t capacity_;
  std::list<FileId> order_;  ///< front = most recently used
  std::unordered_map<FileId, Slot> slots_;
  CacheStats stats_;
};

}  // namespace farmer
