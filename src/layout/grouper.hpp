// Correlation-directed file grouping (Section 4.2).
//
// Builds disjoint groups of strongly correlated files from FARMER's
// Correlator Lists via union-find: every listed Correlator B of A merges A
// and B, subject to a group-size cap (one batched I/O must stay bounded).
// A list holds only pairs whose degree cleared the miner's `max_strength`,
// so the lists are already the strong edges. Per the paper's design
// decision, only read-only files are eligible — mutable files would make
// grouped layout management complex.
#pragma once

#include <cstdint>
#include <vector>

#include "api/correlation_miner.hpp"
#include "trace/record.hpp"

namespace farmer {

struct GrouperConfig {
  std::size_t max_group_files = 16;
  bool read_only_only = true;  ///< the paper's initial-attempt restriction
};

/// Disjoint-set over dense file ids with size caps.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  [[nodiscard]] std::uint32_t find(std::uint32_t x) noexcept;
  /// Merges if the combined size stays within `cap`; returns success.
  bool merge(std::uint32_t a, std::uint32_t b, std::size_t cap) noexcept;
  [[nodiscard]] std::size_t size_of(std::uint32_t x) noexcept {
    return sizes_[find(x)];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> sizes_;
};

/// Computed layout groups: `group_of[file] == representative`, plus the
/// member lists of every multi-file group.
struct GroupingResult {
  std::vector<std::uint32_t> group_of;              ///< dense by FileId
  std::vector<std::vector<FileId>> groups;          ///< multi-file groups
  std::size_t grouped_files = 0;

  [[nodiscard]] bool same_group(FileId a, FileId b) const noexcept {
    return group_of[a.value()] == group_of[b.value()];
  }
};

/// Derives groups from the miner's current Correlator Lists. Works with any
/// CorrelationMiner backend (serial or sharded).
[[nodiscard]] GroupingResult build_groups(const CorrelationMiner& model,
                                          const TraceDictionary& dict,
                                          const GrouperConfig& cfg);

}  // namespace farmer
