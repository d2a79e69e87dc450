#include "core/cominer.hpp"

namespace farmer {

double CoMiner::correlation_degree(FileId pred, const Signature& pred_sig,
                                   FileId succ,
                                   const Signature& succ_sig) const {
  return degree(cfg_.p, similarity(pred_sig, succ_sig),
                graph_.access_frequency(pred, succ));
}

double CoMiner::evaluate_pair(SignatureGraph::NodeRef pred, FileId succ,
                              const Signature& succ_sig, double nab) {
  const double r =
      degree(cfg_.p, similarity(pred.payload(), succ_sig),
             SignatureGraph::frequency(nab, pred.access_count()));
  ++stats_.pairs_evaluated;
  if (r >= cfg_.max_strength) {
    ++stats_.pairs_accepted;
    graph_.upsert_correlator(pred, {succ, static_cast<float>(r)});
  } else {
    ++stats_.pairs_filtered;
    // Correlations decay: a pair once valid can fall below the threshold as
    // N_pred grows; keep the list honest.
    graph_.remove_correlator(pred, succ);
  }
  return r;
}

}  // namespace farmer
