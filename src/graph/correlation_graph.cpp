#include "graph/correlation_graph.hpp"

#include <algorithm>
#include <cassert>

namespace farmer {

namespace {
const SmallVector<SuccessorEdge, 8> kNoSuccessors{};
const SmallVector<Correlator, 4> kNoCorrelators{};
}  // namespace

CorrelationGraph::CorrelationGraph() : CorrelationGraph(Config{}) {}

void CorrelationGraph::touch(FileId f) {
  assert(f.valid());
  nodes_.grow_to(static_cast<std::size_t>(f.value()) + 1);
}

void CorrelationGraph::record_access(FileId f) { ++at(f).access_count; }

bool CorrelationGraph::add_transition(FileId pred, FileId succ,
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

std::uint64_t CorrelationGraph::access_count(FileId f) const noexcept {
  const Node* n = find(f);
  return n ? n->access_count : 0;
}

double CorrelationGraph::edge_weight(FileId pred, FileId succ) const noexcept {
  const Node* n = find(pred);
  return n ? edge_weight_in(n->successors, succ) : 0.0;
}

double CorrelationGraph::access_frequency(FileId pred,
                                          FileId succ) const noexcept {
  const Node* n = find(pred);
  if (!n || n->access_count == 0) return 0.0;
  return edge_weight(pred, succ) / static_cast<double>(n->access_count);
}

const SmallVector<SuccessorEdge, 8>& CorrelationGraph::successors(
    FileId f) const noexcept {
  const Node* n = find(f);
  return n ? n->successors : kNoSuccessors;
}

SmallVector<Correlator, 4>& CorrelationGraph::correlators(FileId f) {
  return at(f).correlator_list;
}

const SmallVector<Correlator, 4>& CorrelationGraph::correlators(
    FileId f) const noexcept {
  const Node* n = find(f);
  return n ? n->correlator_list : kNoCorrelators;
}

void CorrelationGraph::upsert_correlator(FileId f, Correlator c) {
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

void CorrelationGraph::restore_node(FileId f, std::uint64_t access_count,
                                    std::span<const SuccessorEdge> succs,
                                    std::span<const Correlator> correlators) {
  assert(!has_node(f));
  Node& node = at(f);
  const std::size_t heap_before = node.heap_bytes();
  node.access_count = access_count;
  node.successors.reserve(succs.size());
  for (const SuccessorEdge& e : succs) node.successors.push_back(e);
  node.correlator_list.reserve(correlators.size());
  for (const Correlator& c : correlators) node.correlator_list.push_back(c);
  nodes_.note_heap_change(heap_before, node.heap_bytes());
  edges_ += succs.size();
}

void CorrelationGraph::remove_correlator(FileId f, FileId succ) {
  auto& list = at(f).correlator_list;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].file == succ) {
      list.erase_at(i);
      return;
    }
  }
}

}  // namespace farmer
