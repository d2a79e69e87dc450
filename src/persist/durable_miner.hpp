// Durability decorator for both backends ("farmer", "sharded"):
// WAL-append every record before applying it, checkpoint inline when the
// interval elapses, auto-recover from the persist directory on
// construction. It persists only through the wrapped backend's own
// save()/load(): recovery is `inner->load(dir)`, a checkpoint is
// `inner->save(dir)`, and the Persister adds the WAL around them.
//
// The decorator preserves the synchronous single-threaded contract — the
// WAL append, the apply and the occasional inline checkpoint all run on the
// caller's thread, so WAL order is apply order by construction and the
// durable prefix is always a prefix of the applied history.
#pragma once

#include <memory>

#include "api/correlation_miner.hpp"
#include "persist/persister.hpp"

namespace farmer::persist {

class DurableMiner final : public CorrelationMiner {
 public:
  /// Construction runs recovery: `inner` (fresh, mining under `cfg` over
  /// `dict`) loads the persist directory — newest valid checkpoint plus the
  /// WAL tail — so the miner resumes exactly where the durable prefix
  /// ended, and the WAL reopens there.
  DurableMiner(std::unique_ptr<CorrelationMiner> inner,
               const FarmerConfig& cfg, const TraceDictionary* dict,
               const Options& opts);

  void observe(const TraceRecord& rec) override;
  void observe_batch(std::span<const TraceRecord> records) override;
  /// Flushes the backend, then fsyncs the WAL: on return every record
  /// accepted so far is durable. Throws std::system_error when the sync
  /// fails (the destructor's final sync stays best effort).
  void flush() override;

  [[nodiscard]] CorrelatorView snapshot(FileId f) const override {
    return inner_->snapshot(f);
  }
  [[nodiscard]] bool any_listed(
      FileId f, FunctionRef<bool(FileId)> test) const override {
    return inner_->any_listed(f, test);
  }
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override {
    return inner_->correlation_degree(a, b);
  }
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override {
    return inner_->semantic_similarity(a, b);
  }
  [[nodiscard]] std::uint64_t access_count(FileId f) const override {
    return inner_->access_count(f);
  }
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override {
    return inner_->access_frequency(pred, succ);
  }
  void candidate_evidence(FileId a, std::span<const Correlator> candidates,
                          std::span<PairEvidence> out) const override {
    inner_->candidate_evidence(a, candidates, out);
  }
  [[nodiscard]] MinerStats stats() const override { return inner_->stats(); }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  /// Keeps the factory-name contract: a persist-enabled "sharded" miner
  /// still reports "sharded".
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

  /// Checkpoints into an arbitrary directory (independent of the persist
  /// directory) by delegating to the wrapped backend.
  void save(const std::string& dir) override { inner_->save(dir); }

  /// Loads external state, then re-bases the persist directory on it: the
  /// WAL rotates to the loaded sequence and a covering checkpoint is
  /// written, so subsequent crash recovery reproduces the loaded model plus
  /// whatever was ingested after.
  void load(const std::string& dir) override;

  /// The wrapped backend (tests).
  [[nodiscard]] const CorrelationMiner& inner() const noexcept {
    return *inner_;
  }

 private:
  void maybe_checkpoint();
  /// Writes CHECKPOINT.<seq> through inner_->save(), then prunes.
  void checkpoint(std::uint64_t seq);

  std::unique_ptr<CorrelationMiner> inner_;
  Persister persister_;
};

}  // namespace farmer::persist
