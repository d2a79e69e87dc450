// Stage 3 — Mining & Evaluating: the CoMiner algorithm (Section 3.2).
//
// CoMiner combines the two factors into the file correlation degree
//
//   R(x, y) = p * sim(x, y) + (1 - p) * F(x, y)        (Function 2)
//
// where sim is the VSM Semantic Distance between the files' signatures and
// F(x, y) = N_xy / N_x is the LDA-weighted access frequency maintained in
// the correlation graph. Pairs whose degree falls below `max_strength` are
// filtered out of the Correlator List (Section 3.2.4).
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "graph/correlation_graph.hpp"
#include "vsm/similarity.hpp"

namespace farmer {

/// The graph FARMER mines: each node carries its file's Signature, built
/// from the file's most recent request context.
using SignatureGraph = BasicCorrelationGraph<Signature>;

/// Counters exposed for the efficiency analysis (Section 3.3).
struct CoMinerStats {
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t pairs_accepted = 0;   ///< R >= max_strength
  std::uint64_t pairs_filtered = 0;   ///< R <  max_strength

  [[nodiscard]] double acceptance_rate() const noexcept {
    return pairs_evaluated
               ? static_cast<double>(pairs_accepted) /
                     static_cast<double>(pairs_evaluated)
               : 0.0;
  }
};

class CoMiner {
 public:
  CoMiner(const FarmerConfig& cfg, SignatureGraph& graph)
      : cfg_(cfg), graph_(graph) {}

  /// Stages 3 + 4 for a transition pred -> succ the graph has just counted.
  /// Evaluates R(pred, succ) from pred's signature, `succ_sig` and `nab`,
  /// the edge's N_AB as add_transition() returned it, then updates pred's
  /// Correlator List: the pair is inserted/updated when valid, removed when
  /// it has fallen below the threshold. Returns the degree.
  double evaluate_pair(SignatureGraph::NodeRef pred, FileId succ,
                       const Signature& succ_sig, double nab);

  /// Function 2 on already-computed factors: p * sim + (1 - p) * F. Every
  /// evaluation path (evaluate_pair, the point queries, the fused
  /// candidate-evidence pass) combines through this one expression, so
  /// they agree bit for bit.
  [[nodiscard]] static double degree(double p, double sim,
                                     double freq) noexcept {
    return p * sim + (1.0 - p) * freq;
  }

  /// Pure evaluation without list maintenance (analysis/tests).
  [[nodiscard]] double correlation_degree(FileId pred,
                                          const Signature& pred_sig,
                                          FileId succ,
                                          const Signature& succ_sig) const;

  [[nodiscard]] const CoMinerStats& stats() const noexcept { return stats_; }

  /// Recovery seam (src/persist): overwrites the counters with checkpointed
  /// values so a restored miner reports the same efficiency stats it would
  /// after replaying the full history.
  void set_stats(CoMinerStats stats) noexcept { stats_ = stats; }

 private:
  const FarmerConfig& cfg_;
  SignatureGraph& graph_;
  CoMinerStats stats_;
};

}  // namespace farmer
