// FARMER-enabled data layout and its evaluation (Section 4.2).
//
// Two placement strategies over a set of OSDs (object storage devices, each
// a linear block address space):
//   * scatter — files are allocated in creation order round-robin across
//     OSDs (the baseline: correlated files end up far apart);
//   * grouped — FARMER groups are allocated contiguously on one OSD each,
//     so a predecessor access can batch-read its whole group sequentially.
// Placement only allocates, never frees, so each OSD fills from block 0 up
// and its allocator is one cursor.
//
// Evaluation replays the trace's access stream against a placement and
// accumulates a seek-cost model: consecutive accesses on the same OSD pay a
// cost growing with block distance; an access within the previous access's
// group costs a sequential transfer only. Reported: mean seek distance,
// sequential-run fraction, and modelled total I/O time.
#pragma once

#include <cstdint>
#include <vector>

#include "layout/grouper.hpp"
#include "trace/record.hpp"

namespace farmer {

struct LayoutConfig {
  std::uint32_t osd_count = 4;
};

/// A contiguous run of blocks on one OSD.
struct Extent {
  std::uint64_t start = 0;  ///< block address
  std::uint64_t length = 0; ///< blocks
  [[nodiscard]] std::uint64_t end() const noexcept { return start + length; }
};

/// Where one file lives.
struct Placement {
  std::uint32_t osd = 0;
  Extent extent;
};

struct PlacementMap {
  std::vector<Placement> of_file;       ///< dense by FileId
  std::vector<std::uint64_t> next_block;  ///< per OSD: first free block
};

struct LayoutMetrics {
  std::uint64_t accesses = 0;
  std::uint64_t seeks = 0;            ///< non-sequential transitions
  std::uint64_t sequential_hits = 0;  ///< same-group, same-OSD transitions
  double mean_seek_blocks = 0.0;
  double total_io_ms = 0.0;

  [[nodiscard]] double sequential_fraction() const noexcept {
    return accesses > 1
               ? static_cast<double>(sequential_hits) /
                     static_cast<double>(accesses - 1)
               : 0.0;
  }
};

/// Allocates every file round-robin in creation order (baseline).
[[nodiscard]] PlacementMap place_scatter(const TraceDictionary& dict,
                                         const LayoutConfig& cfg);

/// Allocates FARMER groups contiguously, then the remaining files scattered.
[[nodiscard]] PlacementMap place_grouped(const TraceDictionary& dict,
                                         const GroupingResult& groups,
                                         const LayoutConfig& cfg);

/// Replays the trace's file sequence against a placement.
[[nodiscard]] LayoutMetrics evaluate_layout(const Trace& trace,
                                            const PlacementMap& placement,
                                            const GroupingResult* groups);

}  // namespace farmer
