// Tests for correlation-directed grouping and data layout.
#include <gtest/gtest.h>

#include "core/farmer.hpp"
#include "layout/layout.hpp"
#include "test_helpers.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

TEST(UnionFind, BasicMerge) {
  UnionFind uf(10);
  EXPECT_TRUE(uf.merge(1, 2, 10));
  EXPECT_TRUE(uf.merge(2, 3, 10));
  EXPECT_EQ(uf.find(1), uf.find(3));
  EXPECT_NE(uf.find(1), uf.find(5));
  EXPECT_EQ(uf.size_of(1), 3u);
}

TEST(UnionFind, CapBlocksOversizedMerge) {
  UnionFind uf(10);
  EXPECT_TRUE(uf.merge(0, 1, 2));
  EXPECT_FALSE(uf.merge(0, 2, 2));  // would make 3 > cap 2
  EXPECT_NE(uf.find(0), uf.find(2));
  EXPECT_TRUE(uf.merge(0, 1, 2));  // same-set merge is a no-op success
}

/// Builds a mined model over two clear groups plus a lone file.
struct LayoutFixture {
  MicroTrace mt;
  FileId a1, a2, a3, b1, b2, lone;
  Trace trace;
  std::unique_ptr<Farmer> model;

  LayoutFixture() {
    a1 = mt.file("a1", "/h/u/ga/a1");
    a2 = mt.file("a2", "/h/u/ga/a2");
    a3 = mt.file("a3", "/h/u/ga/a3");
    b1 = mt.file("b1", "/h/u/gb/b1");
    b2 = mt.file("b2", "/h/u/gb/b2");
    lone = mt.file("lone", "/tmp/lone");
    for (int i = 0; i < 6; ++i) {
      mt.access(a1, "u0", "pa", "ha");
      mt.access(a2, "u0", "pa", "ha");
      mt.access(a3, "u0", "pa", "ha");
      mt.access(b1, "u1", "pb", "hb");
      mt.access(b2, "u1", "pb", "hb");
    }
    mt.access(lone, "u2", "pc", "hc");
    trace = mt.build();
    model = std::make_unique<Farmer>(FarmerConfig{}, mt.dict());
    for (const auto& r : trace.records) model->observe(r);
  }
};

TEST(Grouper, FindsMinedGroups) {
  LayoutFixture fx;
  const auto groups = build_groups(*fx.model, *fx.trace.dict, GrouperConfig{});
  EXPECT_GE(groups.groups.size(), 2u);
  EXPECT_TRUE(groups.same_group(fx.a1, fx.a2));
  EXPECT_TRUE(groups.same_group(fx.a1, fx.a3));
  EXPECT_TRUE(groups.same_group(fx.b1, fx.b2));
  EXPECT_FALSE(groups.same_group(fx.a1, fx.b1));
  EXPECT_FALSE(groups.same_group(fx.lone, fx.a1));
}

TEST(Grouper, ReadOnlyRestrictionExcludesMutableFiles) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/g/a", /*read_only=*/true);
  const FileId w = mt.file("w", "/g/w", /*read_only=*/false);
  for (int i = 0; i < 6; ++i) {
    mt.access(a);
    mt.access(w);
  }
  Farmer model(FarmerConfig{}, mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  GrouperConfig ro;
  ro.read_only_only = true;
  const auto strict = build_groups(model, *mt.dict(), ro);
  EXPECT_FALSE(strict.same_group(a, w));
  GrouperConfig loose;
  loose.read_only_only = false;
  const auto relaxed = build_groups(model, *mt.dict(), loose);
  EXPECT_TRUE(relaxed.same_group(a, w));
}

TEST(Grouper, GroupSizeCapRespected) {
  MicroTrace mt;
  std::vector<FileId> files;
  for (int i = 0; i < 12; ++i)
    files.push_back(mt.file("f" + std::to_string(i),
                            "/g/f" + std::to_string(i)));
  for (int rep = 0; rep < 6; ++rep)
    for (const FileId f : files) mt.access(f);
  Farmer model(FarmerConfig{}, mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  GrouperConfig cfg;
  cfg.max_group_files = 4;
  const auto groups = build_groups(model, *mt.dict(), cfg);
  for (const auto& g : groups.groups) EXPECT_LE(g.size(), 4u);
}

TEST(Layout, ScatterPlacesEverything) {
  LayoutFixture fx;
  LayoutConfig cfg;
  cfg.osd_count = 2;
  const auto map = place_scatter(*fx.trace.dict, cfg);
  ASSERT_EQ(map.of_file.size(), fx.trace.dict->files.size());
  // Round-robin in creation order, each OSD filled from block 0 without
  // gaps.
  std::vector<std::uint64_t> next(cfg.osd_count, 0);
  for (std::uint32_t f = 0; f < map.of_file.size(); ++f) {
    const Placement& p = map.of_file[f];
    EXPECT_EQ(p.osd, f % cfg.osd_count);
    EXPECT_EQ(p.extent.start, next[p.osd]);
    EXPECT_GT(p.extent.length, 0u);
    next[p.osd] = p.extent.end();
  }
  EXPECT_EQ(map.next_block, next);
}

TEST(Layout, GroupedPlacesGroupContiguouslyOnOneOsd) {
  LayoutFixture fx;
  const auto groups = build_groups(*fx.model, *fx.trace.dict, GrouperConfig{});
  LayoutConfig cfg;
  cfg.osd_count = 2;
  const auto map = place_grouped(*fx.trace.dict, groups, cfg);
  // Members of the a-group share an OSD and form one contiguous run.
  const auto& pa1 = map.of_file[fx.a1.value()];
  const auto& pa2 = map.of_file[fx.a2.value()];
  const auto& pa3 = map.of_file[fx.a3.value()];
  EXPECT_EQ(pa1.osd, pa2.osd);
  EXPECT_EQ(pa2.osd, pa3.osd);
  // Contiguity: extents are adjacent in some order.
  std::vector<Extent> ex = {pa1.extent, pa2.extent, pa3.extent};
  std::sort(ex.begin(), ex.end(),
            [](const Extent& x, const Extent& y) { return x.start < y.start; });
  EXPECT_EQ(ex[0].end(), ex[1].start);
  EXPECT_EQ(ex[1].end(), ex[2].start);
}

TEST(Layout, GroupedBeatsScatterOnSequentiality) {
  LayoutFixture fx;
  const auto groups = build_groups(*fx.model, *fx.trace.dict, GrouperConfig{});
  LayoutConfig cfg;
  cfg.osd_count = 2;
  const auto scatter = place_scatter(*fx.trace.dict, cfg);
  const auto grouped = place_grouped(*fx.trace.dict, groups, cfg);
  const auto m_scatter = evaluate_layout(fx.trace, scatter, nullptr);
  const auto m_grouped = evaluate_layout(fx.trace, grouped, &groups);
  EXPECT_GT(m_grouped.sequential_fraction(), m_scatter.sequential_fraction());
  EXPECT_LT(m_grouped.total_io_ms, m_scatter.total_io_ms);
  EXPECT_LT(m_grouped.seeks, m_scatter.seeks);
}

TEST(Layout, MetricsCountAccesses) {
  LayoutFixture fx;
  LayoutConfig cfg;
  const auto map = place_scatter(*fx.trace.dict, cfg);
  const auto m = evaluate_layout(fx.trace, map, nullptr);
  EXPECT_EQ(m.accesses, fx.trace.records.size());
}

}  // namespace
}  // namespace farmer
