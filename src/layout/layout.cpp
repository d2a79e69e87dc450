#include "layout/layout.hpp"

#include <cassert>

namespace farmer {

namespace {

// The §4.2 device and cost model.
constexpr std::uint64_t kOsdCapacityBlocks = 1ull << 22;  // 4 Mi blocks
constexpr std::uint64_t kBlockSize = 4096;                // bytes
constexpr double kSeekBaseUs = 400.0;     // minimum positioning cost
constexpr double kSeekPerGbUs = 2500.0;   // added cost per GB of seek span
constexpr double kTransferPerBlockUs = 8.0;

std::uint64_t blocks_for(const FileMeta& meta) {
  return (static_cast<std::uint64_t>(meta.size_bytes) + kBlockSize - 1) /
             kBlockSize +
         1;  // +1 block of metadata/indirection
}

PlacementMap empty_placement(const TraceDictionary& dict, const LayoutConfig& cfg) {
  PlacementMap map;
  map.of_file.resize(dict.files.size());
  map.next_block.assign(cfg.osd_count, 0);
  return map;
}

void place_file(PlacementMap& map, const TraceDictionary& dict,
                std::uint32_t file, std::uint32_t osd) {
  std::uint64_t& next = map.next_block[osd];
  const Extent extent{next, blocks_for(dict.files[file])};
  next = extent.end();
  assert(next <= kOsdCapacityBlocks && "OSD capacity exhausted");
  map.of_file[file] = {osd, extent};
}

}  // namespace

PlacementMap place_scatter(const TraceDictionary& dict,
                           const LayoutConfig& cfg) {
  PlacementMap map = empty_placement(dict, cfg);
  for (std::uint32_t f = 0; f < dict.files.size(); ++f)
    place_file(map, dict, f, f % cfg.osd_count);
  return map;
}

PlacementMap place_grouped(const TraceDictionary& dict,
                           const GroupingResult& groups,
                           const LayoutConfig& cfg) {
  PlacementMap map = empty_placement(dict, cfg);
  std::vector<bool> placed(dict.files.size(), false);

  // Each multi-file group lands contiguously on one OSD (round-robin over
  // OSDs to balance load).
  std::uint32_t next_osd = 0;
  for (const auto& members : groups.groups) {
    const std::uint32_t osd = next_osd;
    next_osd = (next_osd + 1) % cfg.osd_count;
    for (FileId f : members) {
      place_file(map, dict, f.value(), osd);
      placed[f.value()] = true;
    }
  }
  for (std::uint32_t f = 0; f < dict.files.size(); ++f)
    if (!placed[f]) place_file(map, dict, f, f % cfg.osd_count);
  return map;
}

LayoutMetrics evaluate_layout(const Trace& trace,
                              const PlacementMap& placement,
                              const GroupingResult* groups) {
  LayoutMetrics m;
  double seek_blocks_total = 0.0;
  double io_us = 0.0;
  FileId prev;

  for (const TraceRecord& rec : trace.records) {
    ++m.accesses;
    const Placement& cur = placement.of_file[rec.file.value()];
    io_us += static_cast<double>(cur.extent.length) * kTransferPerBlockUs;
    if (prev.valid() && prev != rec.file) {
      const Placement& before = placement.of_file[prev.value()];
      const bool grouped =
          groups != nullptr && groups->same_group(prev, rec.file);
      if (before.osd == cur.osd && grouped) {
        // Same correlated group laid out contiguously: the batched read
        // already streamed this file — sequential continuation.
        ++m.sequential_hits;
      } else {
        ++m.seeks;
        const std::uint64_t from = before.extent.end();
        const std::uint64_t to = cur.extent.start;
        const std::uint64_t dist =
            before.osd == cur.osd
                ? (from > to ? from - to : to - from)
                : kOsdCapacityBlocks / 2;  // cross-OSD: full reposition
        seek_blocks_total += static_cast<double>(dist);
        const double gb = static_cast<double>(dist) *
                          static_cast<double>(kBlockSize) / 1e9;
        io_us += kSeekBaseUs + gb * kSeekPerGbUs;
      }
    }
    prev = rec.file;
  }
  m.mean_seek_blocks =
      m.seeks > 0 ? seek_blocks_total / static_cast<double>(m.seeks) : 0.0;
  m.total_io_ms = io_us / 1000.0;
  return m;
}

}  // namespace farmer
