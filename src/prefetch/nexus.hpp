// Nexus baseline (Gu, Zhu, Jiang, Wang — CCGRID 2006).
//
// Nexus builds a weighted relationship graph from the *global* access
// sequence with a look-ahead window and linear decremented edge weights —
// exactly FARMER's sequence-mining half — and prefetches the top-k
// successors by edge weight with no semantic filter and no validity
// threshold. The paper frames it as the p = 0 special case of FARMER with
// aggressive prefetching; its weakness is that interleaved streams and
// popular unrelated files earn heavy edges and pollute the cache.
#pragma once

#include "graph/access_window.hpp"
#include "graph/correlation_graph.hpp"
#include "prefetch/predictor.hpp"

namespace farmer {

class NexusPredictor final : public Predictor {
 public:
  struct Config {
    std::size_t window = 4;
    double lda_delta = 0.1;
    std::size_t max_successors = 16;
    /// Aggressiveness: Nexus prefetches a whole relationship group.
    std::size_t prefetch_group = 8;
    /// Minimum accumulated edge weight to prefetch a successor. Nexus's
    /// relationship graph prunes weak edges; requiring more than a single
    /// look-ahead observation (1.5 > max single LDA increment) is the
    /// equivalent pruning rule here.
    double min_weight = 1.5;
  };

  NexusPredictor() : NexusPredictor(Config{}) {}
  explicit NexusPredictor(Config cfg)
      : cfg_(cfg),
        graph_({.max_successors = cfg.max_successors}),
        window_(cfg.window) {}

  void observe(const TraceRecord& rec) override;
  void predict(const TraceRecord& rec, std::size_t limit,
               PredictionList& out) override;

  [[nodiscard]] const char* name() const noexcept override { return "Nexus"; }
  /// Graph plus the look-ahead window and config the predictor carries —
  /// the whole model state, so Table-4 accounting never under-reports.
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return sizeof(*this) + graph_.footprint_bytes();
  }

 private:
  Config cfg_;
  CorrelationGraph graph_;
  AccessWindow window_;
};

}  // namespace farmer
