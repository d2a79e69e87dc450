// Unit tests for the correlation graph and the access window (LDA).
#include <gtest/gtest.h>

#include "core/cominer.hpp"
#include "graph/access_window.hpp"
#include "graph/correlation_graph.hpp"

namespace farmer {
namespace {

// --------------------------------------------------------- AccessWindow --

TEST(AccessWindow, LdaWeightsMatchPaperExample) {
  // Paper: sequence ABCD -> B gets 1.0, C gets 0.9, D gets 0.8 toward A.
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(1, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(2, 0.1), 0.9);
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(3, 0.1), 0.8);
}

TEST(AccessWindow, LdaWeightClampsAtZero) {
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(12, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(100, 0.1), 0.0);
}

TEST(AccessWindow, PushAndOrder) {
  AccessWindow w(3);
  w.push(FileId(1));
  w.push(FileId(2));
  w.push(FileId(3));
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.at(0), FileId(3));  // most recent first
  EXPECT_EQ(w.at(1), FileId(2));
  EXPECT_EQ(w.at(2), FileId(1));
}

TEST(AccessWindow, OldestFallsOut) {
  AccessWindow w(2);
  w.push(FileId(1));
  w.push(FileId(2));
  w.push(FileId(3));
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.at(0), FileId(3));
  EXPECT_EQ(w.at(1), FileId(2));
}

TEST(AccessWindow, PredecessorIterationWithDistances) {
  AccessWindow w(4);
  w.push(FileId(10));
  w.push(FileId(11));
  w.push(FileId(12));
  std::vector<std::pair<std::uint32_t, std::size_t>> seen;
  w.for_each_predecessor(FileId(99), [&](FileId f, std::size_t d) {
    seen.emplace_back(f.value(), d);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint32_t, std::size_t>{12, 1}));
  EXPECT_EQ(seen[1], (std::pair<std::uint32_t, std::size_t>{11, 2}));
  EXPECT_EQ(seen[2], (std::pair<std::uint32_t, std::size_t>{10, 3}));
}

TEST(AccessWindow, SelfReferenceSkipped) {
  AccessWindow w(4);
  w.push(FileId(5));
  w.push(FileId(6));
  int count = 0;
  w.for_each_predecessor(FileId(5), [&](FileId, std::size_t) { ++count; });
  EXPECT_EQ(count, 1);  // only FileId(6)
}

TEST(AccessWindow, ClearEmpties) {
  AccessWindow w(4);
  w.push(FileId(1));
  w.clear();
  EXPECT_TRUE(w.empty());
}

// ----------------------------------------------------- CorrelationGraph --

/// A graph that keeps Correlator Lists (as FARMER's does) without a payload.
/// Nexus's `CorrelationGraph` keeps no list.
using ListedGraph = BasicCorrelationGraph<NoPayload>;

TEST(CorrelationGraph, AccessCounting) {
  CorrelationGraph g;
  g.record_access(g.node(FileId(3)));
  g.record_access(g.node(FileId(3)));
  g.record_access(g.node(FileId(7)));
  EXPECT_EQ(g.access_count(FileId(3)), 2u);
  EXPECT_EQ(g.access_count(FileId(7)), 1u);
  EXPECT_EQ(g.access_count(FileId(999)), 0u);
}

TEST(CorrelationGraph, TransitionAccumulates) {
  CorrelationGraph g;
  const auto a = g.node(FileId(1));
  EXPECT_EQ(g.add_transition(a, FileId(2), 1.0), 1.0);
  // add_transition returns the edge's N_AB after the update, the value the
  // read query sees.
  const double nab = g.add_transition(a, FileId(2), 0.9);
  EXPECT_NEAR(nab, 1.9, 1e-6);
  EXPECT_EQ(nab, g.edge_weight(FileId(1), FileId(2)));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(CorrelationGraph, SelfEdgeRejected) {
  CorrelationGraph g;
  EXPECT_EQ(g.add_transition(g.node(FileId(1)), FileId(1), 1.0), 0.0);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(CorrelationGraph, NonPositiveWeightRejected) {
  CorrelationGraph g;
  const auto a = g.node(FileId(1));
  EXPECT_EQ(g.add_transition(a, FileId(2), 0.0), 0.0);
  EXPECT_EQ(g.add_transition(a, FileId(2), -1.0), 0.0);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(CorrelationGraph, AccessFrequencyDefinition) {
  CorrelationGraph g;
  const auto a = g.node(FileId(1));
  for (int i = 0; i < 4; ++i) g.record_access(a);
  g.add_transition(a, FileId(2), 1.0);
  g.add_transition(a, FileId(2), 1.0);
  // F(A,B) = N_AB / N_A = 2 / 4.
  EXPECT_NEAR(g.access_frequency(FileId(1), FileId(2)), 0.5, 1e-6);
}

TEST(CorrelationGraph, FrequencyZeroWhenUnknown) {
  CorrelationGraph g;
  EXPECT_DOUBLE_EQ(g.access_frequency(FileId(5), FileId(6)), 0.0);
}

TEST(CorrelationGraph, BoundedSuccessorsEvictWeakest) {
  CorrelationGraph g({/*max_successors=*/2, /*correlator_capacity=*/4});
  const auto a = g.node(FileId(0));
  g.add_transition(a, FileId(1), 5.0);
  g.add_transition(a, FileId(2), 1.0);
  // Full. A stronger newcomer replaces the weakest (2) and reports its own
  // weight.
  EXPECT_EQ(g.add_transition(a, FileId(3), 2.0), 2.0);
  EXPECT_EQ(g.successors(FileId(0)).size(), 2u);
  EXPECT_DOUBLE_EQ(g.edge_weight(FileId(0), FileId(2)), 0.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(FileId(0), FileId(3)), 2.0);
  // A weaker newcomer is rejected.
  EXPECT_EQ(g.add_transition(a, FileId(4), 0.5), 0.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(FileId(0), FileId(4)), 0.0);
}

TEST(CorrelationGraph, CorrelatorListSortedDescending) {
  ListedGraph g;
  const auto a = g.node(FileId(0));
  g.upsert_correlator(a, {FileId(1), 0.5f});
  g.upsert_correlator(a, {FileId(2), 0.9f});
  g.upsert_correlator(a, {FileId(3), 0.7f});
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].file, FileId(2));
  EXPECT_EQ(list[1].file, FileId(3));
  EXPECT_EQ(list[2].file, FileId(1));
}

TEST(CorrelationGraph, CorrelatorUpsertReplacesInPlace) {
  ListedGraph g;
  const auto a = g.node(FileId(0));
  g.upsert_correlator(a, {FileId(1), 0.5f});
  g.upsert_correlator(a, {FileId(1), 0.95f});
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 1u);
  EXPECT_FLOAT_EQ(list[0].degree, 0.95f);
}

TEST(CorrelationGraph, CorrelatorCapacityEnforced) {
  ListedGraph g({16, /*correlator_capacity=*/3});
  const auto a = g.node(FileId(0));
  for (std::uint32_t i = 1; i <= 6; ++i)
    g.upsert_correlator(a, {FileId(i), static_cast<float>(i) * 0.1f});
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 3u);
  // Strongest three survive: 0.6, 0.5, 0.4.
  EXPECT_EQ(list[0].file, FileId(6));
  EXPECT_EQ(list[1].file, FileId(5));
  EXPECT_EQ(list[2].file, FileId(4));
}

TEST(CorrelationGraph, WeakEntryNotInsertedWhenFull) {
  ListedGraph g({16, 2});
  const auto a = g.node(FileId(0));
  g.upsert_correlator(a, {FileId(1), 0.9f});
  g.upsert_correlator(a, {FileId(2), 0.8f});
  g.upsert_correlator(a, {FileId(3), 0.1f});  // too weak
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].file, FileId(1));
  EXPECT_EQ(list[1].file, FileId(2));
}

TEST(CorrelationGraph, RemoveCorrelator) {
  ListedGraph g;
  const auto a = g.node(FileId(0));
  g.upsert_correlator(a, {FileId(1), 0.5f});
  g.upsert_correlator(a, {FileId(2), 0.6f});
  g.remove_correlator(a, FileId(1));
  const auto& list = g.correlators(FileId(0));
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].file, FileId(2));
  g.remove_correlator(a, FileId(42));  // absent: no-op
  EXPECT_EQ(g.correlators(FileId(0)).size(), 1u);
}

TEST(CorrelationGraph, EmptyPayloadTakesNoByte) {
  // An empty payload and an absent Correlator List take no byte of the
  // block; a payload adds exactly its own size to each block.
  struct Wide {
    std::uint64_t words[5] = {};
    [[nodiscard]] static std::size_t heap_bytes() noexcept { return 0; }
  };
  if constexpr (sizeof(void*) == 8) {
    // Nexus's block: access count 8 + successors 4 x 8 inline + 8 header.
    EXPECT_EQ(CorrelationGraph::node_block_bytes(), 48u);
    // A listed node adds its Correlator List: 4 x 8 inline + 8 header.
    EXPECT_EQ(ListedGraph::node_block_bytes(), 88u);
    // FARMER's block adds its Signature: 8 x 4 tokens inline + 8 header,
    // then path_len 4 + 4 padding.
    EXPECT_EQ(SignatureGraph::node_block_bytes(), 136u);
  }
  EXPECT_EQ(BasicCorrelationGraph<Wide>::node_block_bytes(),
            ListedGraph::node_block_bytes() + sizeof(Wide));
  EXPECT_EQ((BasicCorrelationGraph<Wide, false>::node_block_bytes()),
            CorrelationGraph::node_block_bytes() + sizeof(Wide));
}

TEST(CorrelationGraph, PayloadLivesInTheNode) {
  struct Tag {
    int value = 0;
    [[nodiscard]] static std::size_t heap_bytes() noexcept { return 0; }
  };
  BasicCorrelationGraph<Tag> g;
  EXPECT_EQ(g.payload(FileId(2)), nullptr);
  const auto a = g.node(FileId(2));
  g.set_payload(a, Tag{7});
  ASSERT_NE(g.payload(FileId(2)), nullptr);
  EXPECT_EQ(g.payload(FileId(2))->value, 7);
  EXPECT_EQ(a.payload().value, 7);
  EXPECT_TRUE(g.has_node(FileId(2)));
  // Graph writes keep the payload; a payload write keeps the node.
  g.record_access(a);
  g.add_transition(a, FileId(3), 1.0);
  EXPECT_EQ(g.payload(FileId(2))->value, 7);
  g.set_payload(a, Tag{9});
  EXPECT_EQ(g.payload(FileId(2))->value, 9);
  EXPECT_EQ(g.access_count(FileId(2)), 1u);
  EXPECT_EQ(g.edge_weight(FileId(2), FileId(3)), 1.0);
  // A restored node carries its payload.
  BasicCorrelationGraph<Tag> restored;
  const Correlator list[] = {{FileId(3), 0.5f}};
  restored.restore_node(FileId(4), 2, {}, list, Tag{11});
  ASSERT_NE(restored.payload(FileId(4)), nullptr);
  EXPECT_EQ(restored.payload(FileId(4))->value, 11);
  EXPECT_EQ(restored.access_count(FileId(4)), 2u);
}

TEST(CorrelationGraph, UnknownFileQueriesAreEmpty) {
  CorrelationGraph g;
  EXPECT_TRUE(g.successors(FileId(123)).empty());
  ListedGraph listed;
  EXPECT_TRUE(listed.successors(FileId(123)).empty());
  EXPECT_TRUE(listed.correlators(FileId(123)).empty());
}

TEST(CorrelationGraph, FootprintGrowsWithNodes) {
  CorrelationGraph g;
  const auto before = g.footprint_bytes();
  for (std::uint32_t i = 0; i < 1000; ++i) g.record_access(g.node(FileId(i)));
  EXPECT_GT(g.footprint_bytes(), before);
}

TEST(CorrelationGraph, NodeCountTracksHighestId) {
  CorrelationGraph g;
  g.record_access(g.node(FileId(9)));
  EXPECT_EQ(g.node_count(), 10u);  // dense table
}

}  // namespace
}  // namespace farmer
