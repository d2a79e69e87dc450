#include "core/farmer.hpp"

#include <algorithm>
#include <cassert>

#include "persist/checkpoint.hpp"
#include "persist/persister.hpp"

namespace farmer {

Farmer::Farmer(FarmerConfig cfg, std::shared_ptr<const TraceDictionary> dict)
    : cfg_(cfg),
      extractor_(std::move(dict)),
      graph_({cfg.max_successors, cfg.correlator_capacity}),
      miner_(cfg_, graph_),
      window_(cfg.window) {}

void Farmer::observe(const TraceRecord& rec) {
  ++requests_;
  observe_impl(rec);
}

void Farmer::observe_batch(std::span<const TraceRecord> records) {
  if (records.empty()) return;
  // One bookkeeping update for the whole span; the pipeline itself is the
  // same per-record code, so batch == serial byte-for-byte.
  requests_ += records.size();
  for (const TraceRecord& r : records) observe_impl(r);
}

void Farmer::observe_impl(const TraceRecord& rec) {
  const FileId file = rec.file;

  // The kernel fetches each block it writes once per record: the file's own
  // block here, and each predecessor's once in the window walk below. Every
  // write goes through that handle, and block addresses are stable, so a
  // handle survives the writes to other blocks.
  //
  // Stage 1 — Extracting. The stored signature always reflects the most
  // recent request context of the file: it is rebuilt from every record's
  // extraction and written into the file's block. node() creates the block
  // on the file's first access — the only place ingest creates a block —
  // and the signature is built before it, which is what keeps "has a
  // block" and "has a recorded context" the same thing.
  extractor_.extract(rec, scratch_vec_);
  Signature sig =
      build_signature(scratch_vec_, cfg_.attributes, cfg_.path_mode);
  const SignatureGraph::NodeRef self = graph_.node(file);
  graph_.set_payload(self, std::move(sig));

  // Stage 2 — Constructing: N_file and LDA-weighted N_{pred,file} updates.
  graph_.record_access(self);
  const Signature& file_sig = self.payload();

  // Refresh the *frequency* component of `file`'s Correlator List: N_file
  // just grew, so F(file, succ) = N_AB / N_file shrank for every listed
  // successor. The semantic component is NOT re-evaluated here — per the
  // paper, semantic distance is only recomputed when the pair is observed
  // again — so stable context matches survive across sessions while
  // one-shot successors (fresh checkpoint files and the like) decay with
  // 1/N and eventually fall below the validity threshold.
  //
  // N_file, the N/(N-1) rescale and the frequency weight are invariant
  // across the loop — the per-entry work is one edge scan and a handful of
  // flops.
  auto& list = self.correlators();
  if (!list.empty()) {
    const auto& succs = self.successors();
    const double n = static_cast<double>(self.access_count());
    const double rescale = n / std::max(1.0, n - 1.0);
    const double freq_w = 1.0 - cfg_.p;
    for (std::size_t i = list.size(); i-- > 0;) {
      const double freq =
          SignatureGraph::edge_weight_in(succs, list[i].file) / n;
      // Recover the semantic part from the stored degree under the
      // *previous* N (freq scaled by N/(N-1)); algebraically equivalent to
      // caching sim.
      const double prev_freq = freq * rescale;
      const double sem = static_cast<double>(list[i].degree) - freq_w * prev_freq;
      const double degree = sem + freq_w * freq;
      // List entries name distinct files, so entry i is the only one for
      // its successor; the entries after it are already refreshed.
      if (degree < cfg_.max_strength)
        list.erase_at(i);
      else
        list[i].degree = static_cast<float>(degree);
    }
    // Order repair instead of a full std::sort: the uniform 1/N rescale
    // mostly preserves relative order, so the list is nearly sorted and the
    // insertion pass is O(k) in the common case. The comparator is a strict
    // total order over unique FileIds (degree desc, FileId asc), so the
    // repaired order is the unique sorted permutation — identical bytes to
    // what std::sort produced.
    for (std::size_t i = 1; i < list.size(); ++i) {
      const Correlator key = list[i];
      std::size_t j = i;
      while (j > 0 && correlator_before(key, list[j - 1])) {
        list[j] = list[j - 1];
        --j;
      }
      list[j] = key;
    }
  }
  window_.for_each_predecessor(file, [&](FileId pred, std::size_t distance) {
    const double w = AccessWindow::lda_weight(distance, cfg_.lda_delta);
    if (w <= 0.0) return;
    // Every file in the window was observed here (or restored with its
    // signature), so node() never creates a signature-less block.
    assert(graph_.has_node(pred));
    const SignatureGraph::NodeRef pred_node = graph_.node(pred);
    // Stages 3 + 4 — Mining & Evaluating, then Sorting: only pairs touched
    // by this request are (re-)evaluated, on the N_AB the transition has
    // just written; the Correlator List insert keeps the list ordered.
    miner_.evaluate_pair(pred_node, file, file_sig,
                         graph_.add_transition(pred_node, file, w));
  });
  window_.push(file);
}

double Farmer::semantic_similarity(FileId a, FileId b) const {
  const Signature* sa = signature_of(a);
  const Signature* sb = signature_of(b);
  if (!sa || !sb) return 0.0;
  return similarity(*sa, *sb);
}

double Farmer::correlation_degree(FileId a, FileId b) const {
  const Signature* sa = signature_of(a);
  const Signature* sb = signature_of(b);
  if (!sa || !sb) return 0.0;
  return miner_.correlation_degree(a, *sa, b, *sb);
}

void Farmer::save(const std::string& dir) {
  const Farmer* self = this;
  persist::write_checkpoint_dir(dir, requests_, cfg_, extractor_.dictionary(),
                                std::span<const Farmer* const>(&self, 1));
}

void Farmer::load(const std::string& dir) {
  Farmer* self = this;
  persist::restore_dir(dir, cfg_, extractor_.dictionary(),
                       std::span<Farmer* const>(&self, 1), *this);
}

void Farmer::restore_counters(std::uint64_t requests, CoMinerStats stats) {
  requests_ = requests;
  miner_.set_stats(stats);
}

void Farmer::restore_window_push(FileId f) { window_.push(f); }

void Farmer::restore_node(FileId f, std::uint64_t access_count,
                          std::span<const SuccessorEdge> succs,
                          std::span<const Correlator> correlators,
                          const Signature& sig) {
  graph_.restore_node(f, access_count, succs, correlators, sig);
}

void Farmer::restore_node_count(std::size_t nodes) {
  if (nodes > 0) graph_.touch(FileId(static_cast<std::uint32_t>(nodes - 1)));
}

}  // namespace farmer
