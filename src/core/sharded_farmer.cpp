#include "core/sharded_farmer.hpp"

#include <algorithm>
#include <cassert>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/small_vector.hpp"
#include "core/cominer.hpp"
#include "persist/checkpoint.hpp"
#include "persist/persister.hpp"
#include "vsm/similarity.hpp"

namespace farmer {

ShardedFarmer::ShardedFarmer(FarmerConfig cfg,
                             std::shared_ptr<const TraceDictionary> dict,
                             std::size_t shards, std::size_t apply_threads)
    : cfg_(cfg) {
  shards_.reserve(shards == 0 ? 1 : shards);
  for (std::size_t i = 0; i < std::max<std::size_t>(shards, 1); ++i)
    shards_.push_back(std::make_unique<Farmer>(cfg, dict));
  slices_.resize(shards_.size());
  // 0 = auto. More lanes than shards cannot be used: the shard slice is the
  // parallelism unit (splitting one slice would reorder a shard's stream).
  std::size_t lanes = apply_threads == 0 ? hardware_parallelism()
                                         : apply_threads;
  lanes = std::min(lanes, shards_.size());
  if (lanes > 1) pool_ = std::make_unique<WorkerPool>(lanes);
}

ShardedFarmer::~ShardedFarmer() = default;

std::size_t ShardedFarmer::apply_thread_count() const noexcept {
  return pool_ ? pool_->thread_count() : 1;
}

std::size_t ShardedFarmer::shard_of(const TraceRecord& rec) const noexcept {
  return static_cast<std::size_t>(mix64(rec.process.value())) %
         shards_.size();
}

void ShardedFarmer::observe(const TraceRecord& rec) {
  shards_[shard_of(rec)]->observe(rec);
}

void ShardedFarmer::observe_batch(std::span<const TraceRecord> records) {
  if (records.empty()) return;
  ++apply_batches_;
  // Single shard: the whole span is one ordered slice — skip partitioning.
  if (shards_.size() == 1) {
    shards_[0]->observe_batch(records);
    return;
  }
  // Partition into contiguous per-shard slices, preserving stream order
  // within each shard (routing order == serial apply order). Copying the
  // records gives each shard a dense span for Farmer::observe_batch's
  // bulk-bookkeeping path; the buffers keep their capacity across batches.
  for (auto& s : slices_) s.clear();
  for (const TraceRecord& r : records) slices_[shard_of(r)].push_back(r);
  const auto apply_slice = [&](std::size_t s) {
    if (!slices_[s].empty()) shards_[s]->observe_batch(slices_[s]);
  };
  if (pool_) {
    // Shard state is task-disjoint, so concurrent slice applies touch no
    // shared mutable state; per-shard record order is unchanged, so the
    // result is byte-identical to the serial loop below.
    apply_parallel_records_ += records.size();
    pool_->run(shards_.size(), apply_slice);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) apply_slice(s);
  }
}

CorrelatorView ShardedFarmer::snapshot(FileId f) const {
  // The concatenation stays inline for up to four full default-capacity
  // shard lists.
  SmallVector<Correlator, 32> merged;
  for (const auto& shard : shards_)
    for (const Correlator& c : shard->correlator_list(f)) merged.push_back(c);
  std::sort(merged.begin(), merged.end(), correlator_before);
  // Deduplicate successors: the strongest shard wins.
  const std::size_t capacity = cfg_.correlator_capacity;
  CorrelatorView::List out;
  for (const Correlator& c : merged) {
    const bool seen =
        std::any_of(out.begin(), out.end(),
                    [&](const Correlator& o) { return o.file == c.file; });
    if (!seen) out.push_back(c);
    if (out.size() >= capacity) break;
  }
  return CorrelatorView(std::move(out));
}

bool ShardedFarmer::any_listed(FileId f,
                               FunctionRef<bool(FileId)> test) const {
  for (const auto& shard : shards_)
    for (const Correlator& c : shard->correlator_list(f))
      if (test(c.file)) return true;
  return false;
}

double ShardedFarmer::correlation_degree(FileId a, FileId b) const {
  double best = 0.0;
  for (const auto& shard : shards_)
    best = std::max(best, shard->correlation_degree(a, b));
  return best;
}

double ShardedFarmer::semantic_similarity(FileId a, FileId b) const {
  double best = 0.0;
  for (const auto& shard : shards_)
    best = std::max(best, shard->semantic_similarity(a, b));
  return best;
}

std::uint64_t ShardedFarmer::access_count(FileId f) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->access_count(f);
  return total;
}

double ShardedFarmer::access_frequency(FileId pred, FileId succ) const {
  double nab = 0.0;
  std::uint64_t na = 0;
  for (const auto& shard : shards_) {
    nab += shard->graph().edge_weight(pred, succ);
    na += shard->graph().access_count(pred);
  }
  return na == 0 ? 0.0 : nab / static_cast<double>(na);
}

void ShardedFarmer::candidate_evidence(FileId a,
                                       std::span<const Correlator> candidates,
                                       std::span<PairEvidence> out) const {
  assert(out.size() >= candidates.size());
  const std::size_t n = candidates.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = PairEvidence{};
  std::uint64_t na = 0;
  for (const auto& shard : shards_) {
    const SignatureGraph& g = shard->graph();
    const std::uint64_t na_s = g.access_count(a);
    const auto& succs = g.successors(a);
    const Signature* sig_a = shard->signature_of(a);
    const double p = shard->config().p;
    na += na_s;
    for (std::size_t i = 0; i < n; ++i) {
      const FileId b = candidates[i].file;
      PairEvidence& e = out[i];
      const double nab = SignatureGraph::edge_weight_in(succs, b);
      e.access_count += g.access_count(b);
      e.frequency += nab;  // sum_s N_AB,s; divided by sum_s N_A,s below
      // A shard without state for a or b contributes 0 to a max that
      // starts at 0, so skipping it changes nothing.
      const Signature* sig_b = sig_a ? shard->signature_of(b) : nullptr;
      if (!sig_b) continue;
      const double sim = similarity(*sig_a, *sig_b);
      const double freq = na_s == 0 ? 0.0 : nab / static_cast<double>(na_s);
      e.similarity = std::max(e.similarity, sim);
      e.degree = std::max(e.degree, CoMiner::degree(p, sim, freq));
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    out[i].frequency =
        na == 0 ? 0.0 : out[i].frequency / static_cast<double>(na);
}

MinerStats ShardedFarmer::stats() const {
  MinerStats total;
  for (const auto& shard : shards_) {
    const MinerStats s = shard->stats();
    total.requests += s.requests;
    total.pairs_evaluated += s.pairs_evaluated;
    total.pairs_accepted += s.pairs_accepted;
    total.pairs_filtered += s.pairs_filtered;
    total.footprint += s.footprint;
  }
  total.footprint.index += sizeof(*this);
  total.shards = shards_.size();
  total.apply_batches = apply_batches_;
  total.apply_parallel_records = apply_parallel_records_;
  return total;
}

void ShardedFarmer::save(const std::string& dir) {
  std::vector<const Farmer*> view;
  view.reserve(shards_.size());
  for (const auto& s : shards_) view.push_back(s.get());
  persist::write_checkpoint_dir(dir, stats().requests, cfg_,
                                shards_.front()->dictionary(), view);
}

void ShardedFarmer::load(const std::string& dir) {
  std::vector<Farmer*> shards;
  shards.reserve(shards_.size());
  for (const auto& s : shards_) shards.push_back(s.get());
  persist::restore_dir(dir, cfg_, shards_.front()->dictionary(), shards,
                       *this);
}

std::size_t ShardedFarmer::footprint_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  for (const auto& s : shards_) bytes += s->footprint_bytes();
  return bytes;
}

}  // namespace farmer
