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
// (`common/cow_store.hpp`), one block per file: the node plus an optional
// per-node payload, so a user that keeps more per-file state (FARMER keeps
// each file's Signature) stores it in the same block instead of a second
// store. The default payload is empty and takes no byte. A snapshot of the
// graph (`CowShare` constructor) structurally shares every node and costs
// O(pages), and subsequent writes clone exactly the nodes they touch. This
// is what makes the concurrent backend's per-publish cost proportional to
// the dirty set instead of the shard size. Copying a graph the ordinary way
// remains a full deep copy.
//
// The same structure serves as the sequence-mining substrate for both
// FARMER's CoMiner and the Nexus baseline (which ranks successors purely by
// N_AB).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

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

/// The payload of a graph that keeps nothing beside each node.
struct NoPayload {
  [[nodiscard]] static constexpr std::size_t heap_bytes() noexcept {
    return 0;
  }
};

/// `Payload` is per-node state stored inside the node's block. It must be
/// default-constructible, copyable, and report the heap it owns through
/// `std::size_t heap_bytes() const`.
template <typename Payload>
class BasicCorrelationGraph {
 public:
  struct Config {
    std::size_t max_successors = 16;  ///< bounded successor set per node
    std::size_t correlator_capacity = 8;  ///< max Correlator List length
  };

  BasicCorrelationGraph() : BasicCorrelationGraph(Config{}) {}
  explicit BasicCorrelationGraph(Config cfg) : cfg_(cfg) {}

  /// Deep copy: every node block duplicated, nothing shared (the defaulted
  /// members do exactly that — CowBlockStore's copy constructor is deep).
  BasicCorrelationGraph(const BasicCorrelationGraph&) = default;
  BasicCorrelationGraph& operator=(const BasicCorrelationGraph&) = default;

  /// Structurally sharing snapshot copy: O(pages) pointer copies; `other`
  /// stays live and clones the nodes it touches from here on. The new graph
  /// answers every const query exactly as `other` would have at copy time.
  BasicCorrelationGraph(CowShare, BasicCorrelationGraph& other)
      : cfg_(other.cfg_), nodes_(other.nodes_.share()), edges_(other.edges_) {}

  /// Ensures a node slot exists for `f`; grows the dense index as needed.
  void touch(FileId f) {
    assert(f.valid());
    nodes_.grow_to(static_cast<std::size_t>(f.value()) + 1);
  }

  /// Records one access of `f` (increments N_f). Creates the node if new.
  void record_access(FileId f) { ++at(f).access_count; }

  /// Adds LDA weight to edge pred -> succ, creating it if absent. If the
  /// successor set is full, the weakest edge is evicted when its weight is
  /// below `weight`. Returns false if the edge was not inserted.
  bool add_transition(FileId pred, FileId succ, double weight);

  /// N_A: total recorded accesses of `f` (0 if unknown).
  [[nodiscard]] std::uint64_t access_count(FileId f) const noexcept {
    const Node* n = find(f);
    return n ? n->access_count : 0;
  }

  /// N_AB for the edge, 0 if absent.
  [[nodiscard]] double edge_weight(FileId pred, FileId succ) const noexcept {
    const Node* n = find(pred);
    return n ? edge_weight_in(n->successors, succ) : 0.0;
  }

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
                                        FileId succ) const noexcept {
    const Node* n = find(pred);
    if (!n || n->access_count == 0) return 0.0;
    return edge_weight_in(n->successors, succ) /
           static_cast<double>(n->access_count);
  }

  /// Successor edges of `f` (unordered). Empty span for unknown files.
  [[nodiscard]] const SmallVector<SuccessorEdge, 8>& successors(
      FileId f) const noexcept {
    const Node* n = find(f);
    return n ? n->successors : no_successors();
  }

  /// Mutable Correlator List of `f` (maintained sorted by CoMiner). Goes
  /// through the COW write gate: the node is cloned first when a snapshot
  /// still shares it.
  [[nodiscard]] SmallVector<Correlator, 4>& correlators(FileId f) {
    return at(f).correlator_list;
  }
  [[nodiscard]] const SmallVector<Correlator, 4>& correlators(
      FileId f) const noexcept {
    const Node* n = find(f);
    return n ? n->correlator_list : no_correlators();
  }

  /// Replaces/inserts `c` in f's Correlator List keeping it sorted by
  /// descending degree and capped at `correlator_capacity`. An existing
  /// entry for the same file is updated in place (and re-sorted).
  void upsert_correlator(FileId f, Correlator c);

  /// Removes the entry for `succ` from f's list if present.
  void remove_correlator(FileId f, FileId succ);

  /// f's payload, or nullptr when `f` has no node.
  [[nodiscard]] const Payload* payload(FileId f) const noexcept {
    const Node* n = find(f);
    return n ? &n->payload : nullptr;
  }

  /// Replaces f's payload through the COW write gate (creating the node
  /// when absent) and accounts the heap the payload owns.
  void set_payload(FileId f, Payload value) {
    Node& node = at(f);
    const std::size_t heap_before = node.payload.heap_bytes();
    node.payload = std::move(value);
    nodes_.note_heap_change(heap_before, node.payload.heap_bytes());
  }

  /// True when `f` has a populated node block (an access or an incoming
  /// transition created one); slots grown only by `touch()` read as absent.
  [[nodiscard]] bool has_node(FileId f) const noexcept {
    return find(f) != nullptr;
  }

  /// Recovery seam (src/persist): recreates f's node exactly as checkpointed
  /// — access count, successor edges, and the Correlator List, both in their
  /// stored order (edge order decides eviction ties; list order is the query
  /// output) — together with its payload. Only valid on a node not yet
  /// populated; the edge counter grows by `succs.size()`.
  void restore_node(FileId f, std::uint64_t access_count,
                    std::span<const SuccessorEdge> succs,
                    std::span<const Correlator> correlators, Payload payload);

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
  /// Bytes of one node block as allocated (inline part with the payload,
  /// without heap spill).
  [[nodiscard]] static constexpr std::size_t node_block_bytes() noexcept {
    return NodeStore::block_inline_bytes();
  }
  /// Stable block identity for COW-invariant tests: equal pointers across
  /// two graphs certify the node is structurally shared.
  [[nodiscard]] const void* node_identity(FileId f) const noexcept {
    return nodes_.block_identity(static_cast<std::size_t>(f.value()));
  }

  /// Approximate heap + table footprint in bytes (Table 4 accounting):
  /// node index, blocks, successor sets, correlator lists, payload heap.
  /// O(1) from the node store's running counters. Counts shared blocks in
  /// full (an upper bound when snapshots are live).
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
    [[no_unique_address]] Payload payload;

    [[nodiscard]] std::size_t heap_bytes() const noexcept {
      return successors.heap_bytes() + correlator_list.heap_bytes() +
             payload.heap_bytes();
    }
  };
  using NodeStore = CowBlockStore<Node>;

  static const SmallVector<SuccessorEdge, 8>& no_successors() noexcept {
    static const SmallVector<SuccessorEdge, 8> none{};
    return none;
  }
  static const SmallVector<Correlator, 4>& no_correlators() noexcept {
    static const SmallVector<Correlator, 4> none{};
    return none;
  }

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

/// The graph of the Nexus baseline: nodes only, 160-byte blocks.
using CorrelationGraph = BasicCorrelationGraph<NoPayload>;

template <typename Payload>
bool BasicCorrelationGraph<Payload>::add_transition(FileId pred, FileId succ,
                                                    double weight) {
  if (weight <= 0.0 || pred == succ) return false;
  // Register succ in the dense index before mutating pred's node (block
  // addresses are stable, but the historical order is kept — and touch()
  // is what gives node_count() its dense-table meaning).
  touch(succ);
  Node& node = at(pred);
  for (auto& e : node.successors) {
    if (e.successor == succ) {
      e.nab += static_cast<float>(weight);
      return true;
    }
  }
  if (node.successors.size() < cfg_.max_successors) {
    const std::size_t heap_before = node.successors.heap_bytes();
    node.successors.push_back({succ, static_cast<float>(weight)});
    nodes_.note_heap_change(heap_before, node.successors.heap_bytes());
    ++edges_;
    return true;
  }
  // Successor set full: evict the weakest edge if the newcomer beats it.
  // This is the filtering that keeps the graph's footprint bounded.
  std::size_t weakest = 0;
  for (std::size_t i = 1; i < node.successors.size(); ++i)
    if (node.successors[i].nab < node.successors[weakest].nab) weakest = i;
  if (static_cast<double>(node.successors[weakest].nab) < weight) {
    node.successors[weakest] = {succ, static_cast<float>(weight)};
    return true;
  }
  return false;
}

template <typename Payload>
void BasicCorrelationGraph<Payload>::upsert_correlator(FileId f,
                                                       Correlator c) {
  auto& list = at(f).correlator_list;
  // Remove any stale entry for the same successor, then insert in sorted
  // position (descending degree). Lists are tiny (<= correlator_capacity),
  // so linear work beats any clever structure.
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].file == c.file) {
      list.erase_at(i);
      break;
    }
  }
  std::size_t pos = 0;
  while (pos < list.size() && list[pos].degree >= c.degree) ++pos;
  if (pos >= cfg_.correlator_capacity) return;  // too weak for a full list
  const std::size_t heap_before = list.heap_bytes();
  list.push_back(c);  // grow by one, then shift into place
  nodes_.note_heap_change(heap_before, list.heap_bytes());
  for (std::size_t i = list.size() - 1; i > pos; --i) list[i] = list[i - 1];
  list[pos] = c;
  while (list.size() > cfg_.correlator_capacity) list.pop_back();
}

template <typename Payload>
void BasicCorrelationGraph<Payload>::remove_correlator(FileId f,
                                                       FileId succ) {
  auto& list = at(f).correlator_list;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].file == succ) {
      list.erase_at(i);
      return;
    }
  }
}

template <typename Payload>
void BasicCorrelationGraph<Payload>::restore_node(
    FileId f, std::uint64_t access_count, std::span<const SuccessorEdge> succs,
    std::span<const Correlator> correlators, Payload payload) {
  assert(!has_node(f));
  Node& node = at(f);
  const std::size_t heap_before = node.heap_bytes();
  node.access_count = access_count;
  node.successors.reserve(succs.size());
  for (const SuccessorEdge& e : succs) node.successors.push_back(e);
  node.correlator_list.reserve(correlators.size());
  for (const Correlator& c : correlators) node.correlator_list.push_back(c);
  node.payload = std::move(payload);
  nodes_.note_heap_change(heap_before, node.heap_bytes());
  edges_ += succs.size();
}

}  // namespace farmer
