#include "prefetch/nexus.hpp"

#include <algorithm>

namespace farmer {

void NexusPredictor::observe(const TraceRecord& rec) {
  const FileId file = rec.file;
  graph_.record_access(graph_.node(file));
  window_.for_each_predecessor(file, [&](FileId pred, std::size_t distance) {
    const double w = AccessWindow::lda_weight(distance, cfg_.lda_delta);
    if (w > 0.0) graph_.add_transition(graph_.node(pred), file, w);
  });
  window_.push(file);
}

void NexusPredictor::predict(const TraceRecord& rec, std::size_t limit,
                             PredictionList& out) {
  const auto& succ = graph_.successors(rec.file);
  if (succ.empty()) return;
  // Rank successors by raw edge weight (no semantic filter).
  SmallVector<SuccessorEdge, 8> ranked;
  for (const auto& e : succ)
    if (static_cast<double>(e.nab) >= cfg_.min_weight) ranked.push_back(e);
  std::sort(ranked.begin(), ranked.end(),
            [](const SuccessorEdge& a, const SuccessorEdge& b) {
              if (a.nab != b.nab) return a.nab > b.nab;
              return a.successor < b.successor;
            });
  const std::size_t n = std::min({static_cast<std::size_t>(ranked.size()),
                                  cfg_.prefetch_group, limit});
  for (std::size_t i = 0; i < n; ++i) out.push_back(ranked[i].successor);
}

}  // namespace farmer
