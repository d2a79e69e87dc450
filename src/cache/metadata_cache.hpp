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
//
// FileIds are dense, so the cache is one slot table indexed by
// `FileId::value()`: each slot holds a resident flag, the unused-prefetch
// flag and the prev/next links of an intrusive LRU list threaded through the
// table. A residency test is a bounds check and one load, with no hashing;
// the table costs 12 bytes per FileId up to the largest id ever inserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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
  /// recently used entry when full. `f` must be valid.
  void insert_demand(FileId f);

  /// Inserts a prefetched entry. Returns false (and counts nothing) if the
  /// entry is already resident — an already-cached prediction costs nothing
  /// and earns nothing. Evicts as needed. `f` must be valid.
  bool insert_prefetch(FileId f);

  /// Whether `f` is resident (no recency update, no stats).
  [[nodiscard]] bool contains(FileId f) const noexcept {
    return f.value() < slots_.size() && slots_[f.value()].resident;
  }

  /// Invalidates an entry if resident (metadata updates in the MDS).
  void erase(FileId f);

  /// Zeroes the counters without touching residency (warm-up support).
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  /// End of the recency list; never a resident id, since `insert` rejects
  /// the invalid FileId.
  static constexpr std::uint32_t kNil = FileId::kInvalid;

  struct Slot {
    std::uint32_t prev = kNil;  ///< next more recently used entry
    std::uint32_t next = kNil;  ///< next less recently used entry
    bool resident = false;
    bool unused_prefetch = false;  ///< came from prefetch, no demand hit yet
  };
  static_assert(sizeof(Slot) <= 12);

  void insert(FileId f, bool prefetched);
  /// Removes a resident entry, counting it as polluting when it was an
  /// unused prefetch.
  void remove(std::uint32_t i) noexcept;
  void unlink(std::uint32_t i) noexcept;
  void push_front(std::uint32_t i) noexcept;

  std::size_t capacity_;
  std::vector<Slot> slots_;  ///< indexed by FileId; grows, never shrinks
  std::uint32_t head_ = kNil;  ///< most recently used
  std::uint32_t tail_ = kNil;  ///< least recently used, the next victim
  std::size_t size_ = 0;
  CacheStats stats_;
};

}  // namespace farmer
