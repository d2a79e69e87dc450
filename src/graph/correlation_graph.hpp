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
// Per-file node state lives in a paged block store (`common/block_store.hpp`),
// one block per file: the node plus an optional per-node payload, so a user
// that keeps more per-file state (FARMER keeps each file's Signature)
// stores it in the same block instead of a second store. The default
// payload is empty and takes no byte, and so does the Correlator List of a
// graph that keeps none (Nexus's). The graph owns its blocks and is pinned:
// neither copyable nor movable.
//
// Writes go through a handle: `node(f)` fetches f's block once, and every
// mutation takes the `NodeRef` it returns. A caller that writes one node
// several times per request (the ingest kernel writes the file's own block
// and each predecessor's) pays one block fetch per node, not one per write.
// The const read queries take a FileId.
//
// The same structure serves as the sequence-mining substrate for both
// FARMER's CoMiner and the Nexus baseline (which ranks successors purely by
// N_AB).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "common/block_store.hpp"
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

/// The Correlator-List order: degree descending, FileId ascending on ties.
/// Over unique FileIds this is a strict total order, so the sorted
/// permutation is unique — any correct sort produces the same bytes. A
/// function object, so `std::sort(..., correlator_before)` inlines it.
inline constexpr auto correlator_before = [](const Correlator& a,
                                             const Correlator& b) noexcept {
  if (a.degree != b.degree) return a.degree > b.degree;
  return a.file < b.file;
};

/// A node's successor edges. Four inline: under the default window a file
/// seen once has at most 4 successors; a busier file spills to the heap,
/// up to `max_successors` edges.
using SuccessorList = SmallVector<SuccessorEdge, 4>;
/// A node's Correlator List, up to `correlator_capacity` entries.
using CorrelatorList = SmallVector<Correlator, 4>;

/// A model's footprint (Table 4's bytes) split by structure. The parts sum
/// to the model's footprint_bytes(); each is a running counter, O(1) to read.
struct FootprintBreakdown {
  std::size_t blocks = 0;          ///< per-file blocks, as allocated in chunks
  std::size_t successor_heap = 0;  ///< successor sets spilled past 4 edges
  std::size_t list_heap = 0;       ///< Correlator Lists spilled past 4 entries
  std::size_t signature_heap = 0;  ///< signatures spilled past 8 tokens
  std::size_t index = 0;  ///< page and chunk tables plus the fixed objects

  [[nodiscard]] std::size_t total() const noexcept {
    return blocks + successor_heap + list_heap + signature_heap + index;
  }
  FootprintBreakdown& operator+=(const FootprintBreakdown& o) noexcept {
    blocks += o.blocks;
    successor_heap += o.successor_heap;
    list_heap += o.list_heap;
    signature_heap += o.signature_heap;
    index += o.index;
    return *this;
  }
};

/// The payload of a graph that keeps nothing beside each node.
struct NoPayload {
  [[nodiscard]] static constexpr std::size_t heap_bytes() noexcept {
    return 0;
  }
};

/// `Payload` is per-node state stored inside the node's block. It must be
/// default-constructible, own no heap when default-constructed, and report
/// the heap it owns through `std::size_t heap_bytes() const`; that heap is
/// the breakdown's `signature_heap`, since FARMER's payload is the
/// Signature. `Listed` says whether each node keeps a Correlator List:
/// FARMER's graph does, while Nexus ranks successors by N_AB alone, so its
/// blocks hold N_f and the successor edges only. The list methods exist
/// only on a listed graph.
template <typename Payload, bool Listed = true>
class BasicCorrelationGraph {
  struct Node;  // one file's block, defined below

 public:
  struct Config {
    std::size_t max_successors = 16;  ///< bounded successor set per node
    std::size_t correlator_capacity = 8;  ///< max Correlator List length
  };

  /// Write handle to one node's block, returned by node(). Block addresses
  /// are stable, so a handle stays valid across writes to other nodes and
  /// the creation of new ones.
  class NodeRef {
   public:
    [[nodiscard]] FileId id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t access_count() const noexcept {
      return node_->access_count;
    }
    [[nodiscard]] const SuccessorList& successors() const noexcept {
      return node_->successors;
    }
    /// The Correlator List. Its entries may be rewritten, reordered and
    /// erased in place, none of which changes its heap; an insert goes
    /// through upsert_correlator(), which reports the growth.
    [[nodiscard]] CorrelatorList& correlators() const noexcept
      requires Listed
    {
      return node_->correlator_list;
    }
    [[nodiscard]] const Payload& payload() const noexcept {
      return node_->payload;
    }

   private:
    friend class BasicCorrelationGraph;
    NodeRef(Node& node, FileId id) noexcept : node_(&node), id_(id) {}
    Node* node_;
    FileId id_;
  };

  BasicCorrelationGraph() : BasicCorrelationGraph(Config{}) {}
  explicit BasicCorrelationGraph(Config cfg) : cfg_(cfg) {}
  /// Pinned: NodeRef handles point into it, and its heap counters and edge
  /// count describe its own store.
  BasicCorrelationGraph(const BasicCorrelationGraph&) = delete;
  BasicCorrelationGraph& operator=(const BasicCorrelationGraph&) = delete;

  /// Ensures a node slot exists for `f`; grows the dense index as needed.
  void touch(FileId f) {
    assert(f.valid());
    nodes_.grow_to(static_cast<std::size_t>(f.value()) + 1);
  }

  /// The write gate: a handle to f's block, created when absent. Every
  /// mutation below takes one.
  [[nodiscard]] NodeRef node(FileId f) { return NodeRef(at(f), f); }

  /// Records one access of the node (increments N_f).
  void record_access(NodeRef n) noexcept { ++n.node_->access_count; }

  /// Adds LDA weight to edge pred -> succ, creating it if absent. If the
  /// successor set is full, the weakest edge is evicted when its weight is
  /// below `weight`. Returns the edge's N_AB after the update, or 0 when the
  /// edge was not inserted (a self-edge, a non-positive weight, or a full
  /// set whose weakest edge is not below `weight`): the numerator of
  /// F(pred, succ) from the same scan that wrote it.
  double add_transition(NodeRef pred, FileId succ, double weight);

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
  [[nodiscard]] static double edge_weight_in(const SuccessorList& succs,
                                             FileId succ) noexcept {
    for (const auto& e : succs)
      if (e.successor == succ) return static_cast<double>(e.nab);
    return 0.0;
  }

  /// F(A,B) = N_AB / N_A; 0 when N_A == 0.
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const noexcept {
    const Node* n = find(pred);
    return n ? frequency(edge_weight_in(n->successors, succ), n->access_count)
             : 0.0;
  }

  /// F = nab / N_A; 0 when N_A == 0. The one division behind
  /// access_frequency() and the ingest kernel's evaluation, which takes
  /// `nab` from add_transition(), so the two agree bit for bit.
  [[nodiscard]] static double frequency(double nab,
                                        std::uint64_t access_count) noexcept {
    return access_count == 0 ? 0.0
                             : nab / static_cast<double>(access_count);
  }

  /// Successor edges of `f` (unordered). Empty span for unknown files.
  [[nodiscard]] const SuccessorList& successors(FileId f) const noexcept {
    const Node* n = find(f);
    return n ? n->successors : no_successors();
  }

  /// Correlator List of `f` (maintained sorted by CoMiner).
  [[nodiscard]] const CorrelatorList& correlators(FileId f) const noexcept
    requires Listed
  {
    const Node* n = find(f);
    return n ? n->correlator_list : no_correlators();
  }

  /// Replaces/inserts `c` in the node's Correlator List keeping it sorted
  /// by descending degree and capped at `correlator_capacity`. An existing
  /// entry for the same file is replaced (and re-sorted).
  void upsert_correlator(NodeRef n, Correlator c)
    requires Listed;

  /// Removes the entry for `succ` from the node's list if present.
  void remove_correlator(NodeRef n, FileId succ) noexcept
    requires Listed;

  /// f's payload, or nullptr when `f` has no node.
  [[nodiscard]] const Payload* payload(FileId f) const noexcept {
    const Node* n = find(f);
    return n ? &n->payload : nullptr;
  }

  /// Replaces the node's payload and accounts the heap the payload owns.
  void set_payload(NodeRef n, Payload value) {
    Node& node = *n.node_;
    const std::size_t heap_before = node.payload.heap_bytes();
    node.payload = std::move(value);
    note_heap(payload_heap_, heap_before, node.payload.heap_bytes());
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
                    std::span<const Correlator> correlators, Payload payload)
    requires Listed;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Bytes of one node block as allocated (inline part with the payload,
  /// without heap spill).
  [[nodiscard]] static constexpr std::size_t node_block_bytes() noexcept {
    return sizeof(Node);
  }

  /// Heap + table footprint in bytes (Table 4 accounting): node index,
  /// blocks, successor sets, correlator lists, payload heap. O(1) from the
  /// node store's running counters.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(*this) - sizeof(NodeStore) + nodes_.footprint_bytes();
  }
  /// footprint_bytes() split by structure, from the graph's per-structure
  /// heap counters and the store's: O(1). The heap parts sum to the store's
  /// heap total, so the parts sum to footprint_bytes().
  [[nodiscard]] FootprintBreakdown footprint_breakdown() const noexcept {
    return {.blocks = nodes_.block_bytes(),
            .successor_heap = successor_heap_,
            .list_heap = list_heap_,
            .signature_heap = payload_heap_,
            .index = sizeof(*this) - sizeof(NodeStore) + nodes_.index_bytes()};
  }
  /// footprint_bytes() by walking every node — the test oracle for the
  /// running counters.
  [[nodiscard]] std::size_t recount_footprint_bytes() const {
    return sizeof(*this) - sizeof(NodeStore) +
           nodes_.recount_footprint_bytes();
  }

 private:
  /// The Correlator List of a graph that keeps none: no byte in the block.
  struct NoList {
    [[nodiscard]] static constexpr std::size_t heap_bytes() noexcept {
      return 0;
    }
  };

  struct Node {
    std::uint64_t access_count = 0;
    SuccessorList successors;
    [[no_unique_address]] std::conditional_t<Listed, CorrelatorList, NoList>
        correlator_list;
    [[no_unique_address]] Payload payload;

    [[nodiscard]] std::size_t heap_bytes() const noexcept {
      return successors.heap_bytes() + correlator_list.heap_bytes() +
             payload.heap_bytes();
    }
  };
  using NodeStore = BlockStore<Node>;

  static const SuccessorList& no_successors() noexcept {
    static const SuccessorList none{};
    return none;
  }
  static const CorrelatorList& no_correlators() noexcept {
    static const CorrelatorList none{};
    return none;
  }

  /// Reports that one structure's heap went from `before` to `after` bytes:
  /// its own counter (`part`) and the store's total move together.
  void note_heap(std::size_t& part, std::size_t before,
                 std::size_t after) noexcept {
    part -= before;
    part += after;
    nodes_.note_heap_change(before, after);
  }

  [[nodiscard]] const Node* find(FileId f) const noexcept {
    return nodes_.find(static_cast<std::size_t>(f.value()));
  }
  [[nodiscard]] Node& at(FileId f) {
    return nodes_.mutate(static_cast<std::size_t>(f.value()));
  }

  Config cfg_;
  NodeStore nodes_;  // dense by FileId, one block per populated node
  std::size_t edges_ = 0;
  // Heap the blocks own, per structure; they sum to the store's heap count.
  std::size_t successor_heap_ = 0;
  std::size_t list_heap_ = 0;
  std::size_t payload_heap_ = 0;
};

/// The graph of the Nexus baseline: N_f and successor edges, no Correlator
/// List and no payload; 48-byte blocks on LP64.
using CorrelationGraph = BasicCorrelationGraph<NoPayload, /*Listed=*/false>;

template <typename Payload, bool Listed>
double BasicCorrelationGraph<Payload, Listed>::add_transition(NodeRef pred,
                                                              FileId succ,
                                                              double weight) {
  if (weight <= 0.0 || pred.id() == succ) return 0.0;
  // touch() registers succ in the dense index, which is what gives
  // node_count() its dense-table meaning.
  touch(succ);
  auto& succs = pred.node_->successors;
  for (auto& e : succs) {
    if (e.successor == succ) {
      e.nab += static_cast<float>(weight);
      return static_cast<double>(e.nab);
    }
  }
  const SuccessorEdge edge{succ, static_cast<float>(weight)};
  if (succs.size() < cfg_.max_successors) {
    const std::size_t heap_before = succs.heap_bytes();
    succs.push_back(edge);
    note_heap(successor_heap_, heap_before, succs.heap_bytes());
    ++edges_;
    return static_cast<double>(edge.nab);
  }
  // Successor set full: evict the weakest edge if the newcomer beats it.
  // This is the filtering that keeps the graph's footprint bounded.
  std::size_t weakest = 0;
  for (std::size_t i = 1; i < succs.size(); ++i)
    if (succs[i].nab < succs[weakest].nab) weakest = i;
  if (static_cast<double>(succs[weakest].nab) < weight) {
    succs[weakest] = edge;
    return static_cast<double>(edge.nab);
  }
  return 0.0;
}

template <typename Payload, bool Listed>
void BasicCorrelationGraph<Payload, Listed>::upsert_correlator(NodeRef n,
                                                               Correlator c)
  requires Listed
{
  auto& list = n.correlators();
  // Remove any stale entry for the same successor, then insert in sorted
  // position (descending degree). Lists are tiny (<= correlator_capacity),
  // so linear work beats any clever structure.
  remove_correlator(n, c.file);
  std::size_t pos = 0;
  while (pos < list.size() && list[pos].degree >= c.degree) ++pos;
  if (pos >= cfg_.correlator_capacity) return;  // too weak for a full list
  const std::size_t heap_before = list.heap_bytes();
  list.push_back(c);  // grow by one, then shift into place
  note_heap(list_heap_, heap_before, list.heap_bytes());
  for (std::size_t i = list.size() - 1; i > pos; --i) list[i] = list[i - 1];
  list[pos] = c;
  while (list.size() > cfg_.correlator_capacity) list.pop_back();
}

template <typename Payload, bool Listed>
void BasicCorrelationGraph<Payload, Listed>::remove_correlator(
    NodeRef n, FileId succ) noexcept
  requires Listed
{
  auto& list = n.correlators();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].file == succ) {
      list.erase_at(i);
      return;
    }
  }
}

template <typename Payload, bool Listed>
void BasicCorrelationGraph<Payload, Listed>::restore_node(
    FileId f, std::uint64_t access_count, std::span<const SuccessorEdge> succs,
    std::span<const Correlator> correlators, Payload payload)
  requires Listed
{
  assert(!has_node(f));
  Node& node = at(f);
  node.access_count = access_count;
  // A fresh block owns no heap, so each structure's heap grows from 0.
  node.successors.reserve(succs.size());
  for (const SuccessorEdge& e : succs) node.successors.push_back(e);
  note_heap(successor_heap_, 0, node.successors.heap_bytes());
  node.correlator_list.reserve(correlators.size());
  for (const Correlator& c : correlators) node.correlator_list.push_back(c);
  note_heap(list_heap_, 0, node.correlator_list.heap_bytes());
  node.payload = std::move(payload);
  note_heap(payload_heap_, 0, node.payload.heap_bytes());
  edges_ += succs.size();
}

}  // namespace farmer
