#include "persist/durable_miner.hpp"

namespace farmer::persist {

namespace {

/// Loads the persist directory into the fresh `miner` and returns the
/// sequence number the WAL resumes at: every recovered record was applied.
std::uint64_t recover(CorrelationMiner& miner, const std::string& dir) {
  miner.load(dir);
  return miner.stats().requests;
}

}  // namespace

DurableMiner::DurableMiner(std::unique_ptr<CorrelationMiner> inner,
                           const FarmerConfig& cfg,
                           const TraceDictionary* dict, const Options& opts)
    : inner_(std::move(inner)),
      persister_(opts, cfg, dict, recover(*inner_, opts.dir)) {}

void DurableMiner::observe(const TraceRecord& rec) {
  persister_.append(std::span<const TraceRecord>(&rec, 1));
  inner_->observe(rec);
  maybe_checkpoint();
}

void DurableMiner::observe_batch(std::span<const TraceRecord> records) {
  persister_.append(records);
  inner_->observe_batch(records);
  maybe_checkpoint();
}

void DurableMiner::flush() {
  inner_->flush();
  persister_.sync();
}

void DurableMiner::load(const std::string& dir) {
  inner_->load(dir);
  const std::uint64_t seq = inner_->stats().requests;
  persister_.rebase(seq);
  checkpoint(seq);
}

void DurableMiner::maybe_checkpoint() {
  if (!persister_.checkpoint_due()) return;
  checkpoint(persister_.begin_checkpoint());
}

void DurableMiner::checkpoint(std::uint64_t seq) {
  // The backend names the file by its request count, which equals the WAL
  // sequence here: every appended record has been applied.
  inner_->save(persister_.options().dir);
  persister_.prune(seq);
}

}  // namespace farmer::persist
