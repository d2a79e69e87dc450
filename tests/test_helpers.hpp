// Shared helpers for constructing hand-crafted micro-traces in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/correlation_miner.hpp"
#include "prefetch/predictor.hpp"
#include "trace/record.hpp"

namespace farmer::testing {

/// Forwards to a wrapped predictor but overrides only predict(), so
/// predict_fetchable() takes the base default and calls predict(): the
/// ungated reference a residency-gated predictor must match exactly.
class PredictOnlyForwarder final : public Predictor {
 public:
  explicit PredictOnlyForwarder(std::unique_ptr<Predictor> inner)
      : inner_(std::move(inner)) {}

  void observe(const TraceRecord& rec) override { inner_->observe(rec); }
  void predict(const TraceRecord& rec, std::size_t limit,
               PredictionList& out) override {
    inner_->predict(rec, limit, out);
  }
  void flush() override { inner_->flush(); }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  [[nodiscard]] CorrelationMiner* miner() noexcept override {
    return inner_->miner();
  }

 private:
  std::unique_ptr<Predictor> inner_;
};

/// Forwards every call to a wrapped miner and counts candidate_evidence()
/// calls into `calls`: FPA makes one per ranked prediction. When
/// `snapshots` is given, snapshot() calls are counted there: FPA's gate
/// makes one only when any_listed() said yes. any_listed() is forwarded,
/// so a sharded inner miner runs its in-place scan, not the default body.
class EvidenceCountingMiner final : public CorrelationMiner {
 public:
  EvidenceCountingMiner(std::unique_ptr<CorrelationMiner> inner,
                        std::uint64_t& calls,
                        std::uint64_t* snapshots = nullptr)
      : inner_(std::move(inner)), calls_(calls), snapshots_(snapshots) {}

  void observe(const TraceRecord& rec) override { inner_->observe(rec); }
  void observe_batch(std::span<const TraceRecord> records) override {
    inner_->observe_batch(records);
  }
  void flush() override { inner_->flush(); }
  [[nodiscard]] CorrelatorView snapshot(FileId f) const override {
    if (snapshots_) ++*snapshots_;
    return inner_->snapshot(f);
  }
  [[nodiscard]] bool any_listed(
      FileId f, FunctionRef<bool(FileId)> test) const override {
    return inner_->any_listed(f, test);
  }
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override {
    return inner_->correlation_degree(a, b);
  }
  [[nodiscard]] double semantic_similarity(FileId a,
                                           FileId b) const override {
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
    ++calls_;
    inner_->candidate_evidence(a, candidates, out);
  }
  [[nodiscard]] MinerStats stats() const override { return inner_->stats(); }
  void save(const std::string& dir) override { inner_->save(dir); }
  void load(const std::string& dir) override { inner_->load(dir); }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<CorrelationMiner> inner_;
  std::uint64_t& calls_;
  std::uint64_t* snapshots_;
};

/// Builds tiny traces with explicit control over every attribute. Files,
/// users, hosts etc. are created on demand by name.
class MicroTrace {
 public:
  MicroTrace() : dict_(std::make_shared<TraceDictionary>()) {}

  /// Creates (or returns) a file with the given path ("" = no path).
  FileId file(const std::string& name, const std::string& path = "",
              bool read_only = true, std::uint32_t size = 4096) {
    auto it = files_.find(name);
    if (it != files_.end()) return it->second;
    FileMeta meta;
    if (!path.empty()) {
      SmallVector<TokenId, 8> comps;
      intern_path(path, comps);
      meta.path = dict_->add_path(std::move(comps));
    }
    meta.dev = dict_->tokens.intern("dev0");
    meta.fid = dict_->tokens.intern("fid_" + name);
    meta.size_bytes = size;
    meta.read_only = read_only;
    meta.group = kNoGroup;
    const FileId id(static_cast<std::uint32_t>(dict_->files.size()));
    dict_->files.push_back(meta);
    files_[name] = id;
    return id;
  }

  /// Appends an access record. Context strings are interned on the fly.
  TraceRecord& access(FileId f, const std::string& user = "u0",
                      const std::string& pid = "pid0",
                      const std::string& host = "h0",
                      const std::string& program = "prog0") {
    TraceRecord r;
    r.timestamp = static_cast<SimTime>(records_.size()) * 1000;
    r.file = f;
    r.user = UserId(0);
    r.process = ProcessId(id_of(pid));
    r.host = HostId(0);
    r.path = dict_->files[f.value()].path;
    r.user_token = dict_->tokens.intern(user);
    r.process_token = dict_->tokens.intern(pid);
    r.host_token = dict_->tokens.intern(host);
    r.dev_token = dict_->files[f.value()].dev;
    r.fid_token = dict_->files[f.value()].fid;
    r.program_token = dict_->tokens.intern(program);
    r.size_bytes = dict_->files[f.value()].size_bytes;
    records_.push_back(r);
    return records_.back();
  }

  [[nodiscard]] Trace build(const std::string& name = "micro") const {
    Trace t;
    t.name = name;
    t.kind = TraceKind::kCustom;
    t.has_paths = true;
    t.records = records_;
    t.dict = dict_;
    return t;
  }

  [[nodiscard]] std::shared_ptr<TraceDictionary> dict() const {
    return dict_;
  }
  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }

 private:
  void intern_path(const std::string& path, SmallVector<TokenId, 8>& out) {
    std::size_t i = 0;
    while (i < path.size()) {
      while (i < path.size() && path[i] == '/') ++i;
      std::size_t j = i;
      while (j < path.size() && path[j] != '/') ++j;
      if (j > i) out.push_back(dict_->tokens.intern(path.substr(i, j - i)));
      i = j;
    }
  }

  std::uint32_t id_of(const std::string& s) {
    auto it = pid_ids_.find(s);
    if (it != pid_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(pid_ids_.size());
    pid_ids_[s] = id;
    return id;
  }

  std::shared_ptr<TraceDictionary> dict_;
  std::vector<TraceRecord> records_;
  std::unordered_map<std::string, FileId> files_;
  std::unordered_map<std::string, std::uint32_t> pid_ids_;
};

}  // namespace farmer::testing
