// The directed, weighted correlation graph (Constructing stage).
//
// Nodes are files; a directed edge A -> B accumulates N_AB, the LDA-weighted
// count of B following A within the look-ahead window. Each node also counts
// N_A, the total accesses of A, so the access frequency of the paper is
//
//   F(A, B) = N_AB / N_A.
//
// The successor set per node is bounded (`max_successors`): when full, a new
// successor evicts the currently weakest edge if the newcomer's initial
// weight exceeds it. Bounding is what gives FARMER (and Nexus) their small
// memory footprint; `footprint_bytes()` implements the Table-4 accounting.
//
// Per-file node state lives in refcounted copy-on-write blocks
// (`common/cow_store.hpp`): a snapshot of the graph (`CowShare` constructor)
// structurally shares every node and costs O(pages), and subsequent writes
// clone exactly the nodes they touch. This is what makes the concurrent
// backend's per-publish cost proportional to the dirty set instead of the
// shard size. Copying a graph the ordinary way remains a full deep copy.
//
// The same structure serves as the sequence-mining substrate for both
// FARMER's CoMiner and the Nexus baseline (which ranks successors purely by
// N_AB).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cow_store.hpp"
#include "common/small_vector.hpp"
#include "common/types.hpp"

namespace farmer {

/// One outgoing edge of the correlation graph.
struct SuccessorEdge {
  FileId successor;
  float nab = 0.0f;  ///< LDA-weighted successor count N_AB
};

/// One entry of a file's Correlator List (Sorting stage output).
struct Correlator {
  FileId file;
  float degree = 0.0f;  ///< file correlation degree R(A, B)
};

class CorrelationGraph {
 public:
  struct Config {
    std::size_t max_successors = 16;  ///< bounded successor set per node
    std::size_t correlator_capacity = 8;  ///< max Correlator List length
  };

  CorrelationGraph();  // default Config
  explicit CorrelationGraph(Config cfg) : cfg_(cfg) {}

  /// Deep copy: every node block duplicated, nothing shared (the defaulted
  /// members do exactly that — CowBlockStore's copy constructor is deep).
  CorrelationGraph(const CorrelationGraph&) = default;
  CorrelationGraph& operator=(const CorrelationGraph&) = default;

  /// Structurally sharing snapshot copy: O(pages) pointer copies; `other`
  /// stays live and clones the nodes it touches from here on. The new graph
  /// answers every const query exactly as `other` would have at copy time.
  CorrelationGraph(CowShare, CorrelationGraph& other)
      : cfg_(other.cfg_), nodes_(other.nodes_.share()), edges_(other.edges_) {}

  /// Ensures a node slot exists for `f`; grows the dense index as needed.
  void touch(FileId f);

  /// Records one access of `f` (increments N_f). Creates the node if new.
  void record_access(FileId f);

  /// Adds LDA weight to edge pred -> succ, creating it if absent. If the
  /// successor set is full, the weakest edge is evicted when its weight is
  /// below `weight`. Returns false if the edge was not inserted.
  bool add_transition(FileId pred, FileId succ, double weight);

  /// N_A: total recorded accesses of `f` (0 if unknown).
  [[nodiscard]] std::uint64_t access_count(FileId f) const noexcept;

  /// N_AB for the edge, 0 if absent.
  [[nodiscard]] double edge_weight(FileId pred, FileId succ) const noexcept;

  /// N_AB looked up in an already-fetched successor set. The ingest kernel
  /// refreshes every Correlator-List entry of one node per request; fetching
  /// the node once and scanning its edges here removes the per-entry node
  /// find that edge_weight()/access_frequency() would repeat.
  [[nodiscard]] static double edge_weight_in(
      const SmallVector<SuccessorEdge, 8>& succs, FileId succ) noexcept {
    for (const auto& e : succs)
      if (e.successor == succ) return static_cast<double>(e.nab);
    return 0.0;
  }

  /// F(A,B) = N_AB / N_A; 0 when N_A == 0.
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const noexcept;

  /// Successor edges of `f` (unordered). Empty span for unknown files.
  [[nodiscard]] const SmallVector<SuccessorEdge, 8>& successors(
      FileId f) const noexcept;

  /// Mutable Correlator List of `f` (maintained sorted by CoMiner). Goes
  /// through the COW write gate: the node is cloned first when a snapshot
  /// still shares it.
  [[nodiscard]] SmallVector<Correlator, 4>& correlators(FileId f);
  [[nodiscard]] const SmallVector<Correlator, 4>& correlators(
      FileId f) const noexcept;

  /// Replaces/inserts `c` in f's Correlator List keeping it sorted by
  /// descending degree and capped at `correlator_capacity`. An existing
  /// entry for the same file is updated in place (and re-sorted).
  void upsert_correlator(FileId f, Correlator c);

  /// Removes the entry for `succ` from f's list if present.
  void remove_correlator(FileId f, FileId succ);

  /// True when `f` has a populated node block (an access or an incoming
  /// transition created one); slots grown only by `touch()` read as absent.
  [[nodiscard]] bool has_node(FileId f) const noexcept {
    return find(f) != nullptr;
  }

  /// Recovery seam (src/persist): recreates f's node exactly as checkpointed
  /// — access count, successor edges, and the Correlator List, both in their
  /// stored order (edge order decides eviction ties; list order is the query
  /// output). Only valid on a node not yet populated; the edge counter grows
  /// by `succs.size()`.
  void restore_node(FileId f, std::uint64_t access_count,
                    std::span<const SuccessorEdge> succs,
                    std::span<const Correlator> correlators);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// COW write-path counters: populated nodes, creates, clones (the clones
  /// since the last snapshot are exactly the publish-round dirty set).
  [[nodiscard]] const CowStoreStats& cow_stats() const noexcept {
    return nodes_.stats();
  }
  /// Bytes of one node block as allocated (inline part, without heap spill).
  [[nodiscard]] static constexpr std::size_t node_block_bytes() noexcept {
    return NodeStore::block_inline_bytes();
  }
  /// Stable block identity for COW-invariant tests: equal pointers across
  /// two graphs certify the node is structurally shared.
  [[nodiscard]] const void* node_identity(FileId f) const noexcept {
    return nodes_.block_identity(static_cast<std::size_t>(f.value()));
  }

  /// Approximate heap + table footprint in bytes (Table 4 accounting):
  /// node index, blocks, successor sets, correlator lists. O(1) from the
  /// node store's running counters. Counts shared blocks in full (an upper
  /// bound when snapshots are live).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(*this) - sizeof(NodeStore) + nodes_.footprint_bytes();
  }
  /// footprint_bytes() by walking every node — the test oracle for the
  /// running counters.
  [[nodiscard]] std::size_t recount_footprint_bytes() const {
    return sizeof(*this) - sizeof(NodeStore) +
           nodes_.recount_footprint_bytes();
  }

 private:
  struct Node {
    std::uint64_t access_count = 0;
    SmallVector<SuccessorEdge, 8> successors;
    SmallVector<Correlator, 4> correlator_list;

    [[nodiscard]] std::size_t heap_bytes() const noexcept {
      return successors.heap_bytes() + correlator_list.heap_bytes();
    }
  };
  using NodeStore = CowBlockStore<Node>;

  [[nodiscard]] const Node* find(FileId f) const noexcept {
    return nodes_.find(static_cast<std::size_t>(f.value()));
  }
  [[nodiscard]] Node& at(FileId f) {
    return nodes_.mutate(static_cast<std::size_t>(f.value()));
  }

  Config cfg_;
  NodeStore nodes_;  // dense by FileId, COW blocks
  std::size_t edges_ = 0;
};

}  // namespace farmer
