// Tests for the predictor implementations and the replay engine.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <utility>

#include "api/miner_factory.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "prefetch/replay.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

using testing::EvidenceCountingMiner;
using testing::MicroTrace;
using testing::PredictOnlyForwarder;

PredictionList predict(Predictor& p, const TraceRecord& rec,
                       std::size_t limit = 8) {
  PredictionList out;
  p.predict(rec, limit, out);
  return out;
}

// ---------------------------------------------------------------- Nexus --

TEST(Nexus, RanksByAccumulatedWeight) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  NexusPredictor p;
  // a -> b three times, a -> c twice; both exceed the pruning floor.
  for (int i = 0; i < 3; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(b));
  }
  for (int i = 0; i < 2; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(c));
  }
  const auto& rec = mt.access(a);
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0], b);
  EXPECT_EQ(out[1], c);
}

TEST(Nexus, PrunesSingleObservationEdges) {
  MicroTrace mt;
  const FileId a = mt.file("a"), z = mt.file("z");
  NexusPredictor p;
  // One observation accumulates at most 1.0 < min_weight (1.5): no
  // prefetch from a single co-occurrence.
  p.observe(mt.access(a));
  p.observe(mt.access(z));
  const auto& rec = mt.access(a);
  p.observe(rec);
  EXPECT_TRUE(predict(p, rec).empty());
}

TEST(Nexus, NoSemanticFilterPrefetchesCrossContext) {
  // The defining weakness: an interleaved foreign file still gets
  // prefetched because only sequence counts matter.
  MicroTrace mt;
  const FileId a = mt.file("a"), x = mt.file("x");
  NexusPredictor p;
  for (int i = 0; i < 5; ++i) {
    p.observe(mt.access(a, "u0", "pid0"));
    p.observe(mt.access(x, "u9", "pid9"));
  }
  const auto& rec = mt.access(a, "u0", "pid0");
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], x);
}

TEST(Nexus, GroupSizeCapsPredictions) {
  MicroTrace mt;
  const FileId a = mt.file("a");
  NexusPredictor::Config cfg;
  cfg.prefetch_group = 2;
  NexusPredictor p(cfg);
  for (int i = 0; i < 6; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(mt.file("s" + std::to_string(i))));
  }
  const auto& rec = mt.access(a);
  p.observe(rec);
  EXPECT_LE(predict(p, rec).size(), 2u);
}

// ------------------------------------------------------------------ FPA --

TEST(Fpa, PredictsOnlyValidCorrelators) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/p/a");
  const FileId b = mt.file("b", "/home/u0/p/b");
  const FileId x = mt.file("x", "/var/q/x");
  // Strong intra-context pair a->b; interleaved foreign x from a different
  // user, process, and host.
  for (int i = 0; i < 5; ++i) {
    mt.access(a, "u0", "pid0", "h0");
    mt.access(x, "u9", "pid9", "h9");
    mt.access(b, "u0", "pid0", "h0");
  }
  FarmerConfig cfg;
  FpaPredictor p(cfg, mt.dict());
  for (const auto& r : mt.records()) p.observe(r);
  const auto& rec = mt.records().back();
  // Predict successors of the last accessed 'b'... use an 'a' record:
  const auto& a_rec = mt.records()[mt.records().size() - 3];
  ASSERT_EQ(a_rec.file, a);
  PredictionList out;
  p.predict(a_rec, 8, out);
  // x must not be predicted (filtered); b should be.
  bool has_b = false;
  for (FileId f : out) {
    EXPECT_NE(f, x);
    has_b |= (f == b);
  }
  EXPECT_TRUE(has_b);
  (void)rec;
}

TEST(Fpa, RespectsLimit) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/h/u/g/a");
  std::vector<FileId> members;
  for (int i = 0; i < 6; ++i)
    members.push_back(mt.file("m" + std::to_string(i),
                              "/h/u/g/m" + std::to_string(i)));
  for (int rep = 0; rep < 4; ++rep) {
    mt.access(a);
    for (const FileId m : members) mt.access(m);
  }
  FpaPredictor p(FarmerConfig{}, mt.dict());
  for (const auto& r : mt.records()) p.observe(r);
  const auto& a_rec = mt.records()[mt.records().size() - 7];
  ASSERT_EQ(a_rec.file, a);
  PredictionList out;
  p.predict(a_rec, 2, out);
  EXPECT_LE(out.size(), 2u);
}

/// `a` followed by six members of its group, four times over: `a`'s
/// Correlator List holds several candidates that pass FPA's re-check.
struct GroupFixture {
  MicroTrace mt;
  FileId a = mt.file("a", "/h/u/g/a");
  std::uint64_t evidence_calls = 0;
  std::unique_ptr<FpaPredictor> fpa;

  GroupFixture() {
    for (int i = 0; i < 6; ++i) {
      const std::string m = "m" + std::to_string(i);
      mt.file(m, "/h/u/g/" + m);
    }
    for (int rep = 0; rep < 4; ++rep) {
      mt.access(a);
      for (int i = 0; i < 6; ++i) mt.access(mt.file("m" + std::to_string(i)));
    }
    fpa = std::make_unique<FpaPredictor>(
        std::make_unique<EvidenceCountingMiner>(
            std::make_unique<Farmer>(FarmerConfig{}, mt.dict()),
            evidence_calls));
    for (const auto& r : mt.records()) fpa->observe(r);
  }
  // The miner counts into `evidence_calls`, so the fixture stays put.
  GroupFixture(const GroupFixture&) = delete;
  GroupFixture& operator=(const GroupFixture&) = delete;

  /// The last request for `a`.
  [[nodiscard]] const TraceRecord& a_rec() const {
    return mt.records()[mt.records().size() - 7];
  }
};

TEST(Fpa, FetchableGateRejectingEveryCandidatePredictsNothing) {
  GroupFixture g;
  ASSERT_EQ(g.a_rec().file, g.a);
  ASSERT_FALSE(predict(*g.fpa, g.a_rec()).empty());
  const std::uint64_t before = g.evidence_calls;
  PredictionList out;
  g.fpa->predict_fetchable(
      g.a_rec(), 8, [](FileId) { return false; }, out);
  EXPECT_TRUE(out.empty());
  // Accepting only the demanded file itself is the same: FPA never
  // proposes it.
  g.fpa->predict_fetchable(
      g.a_rec(), 8, [&](FileId f) { return f == g.a; }, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(g.evidence_calls, before) << "the gate must skip the re-check";
}

TEST(Fpa, FetchableGateAcceptingOneCandidateMatchesPredict) {
  GroupFixture g;
  const PredictionList want = predict(*g.fpa, g.a_rec());
  ASSERT_GE(want.size(), 2u);
  // Accept only the weakest proposed candidate: the gate opens and the
  // whole ranked list comes back, resident candidates included.
  for (const std::size_t limit : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    const FileId only = want.back();
    PredictionList got;
    g.fpa->predict_fetchable(
        g.a_rec(), limit, [&](FileId f) { return f == only; }, got);
    const PredictionList ref = predict(*g.fpa, g.a_rec(), limit);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin()));
  }
}

TEST(Noop, NeverPredicts) {
  MicroTrace mt;
  NoopPredictor p;
  const auto& rec = mt.access(mt.file("a"));
  p.observe(rec);
  EXPECT_TRUE(predict(p, rec).empty());
}

// ---------------------------------------------------------------- Replay --

/// Proposes the same successor for a file on every request and learns
/// nothing: the replay tests measure replay_trace's accounting, so their
/// predictions are fixed in advance.
class FixedPredictor final : public Predictor {
 public:
  FixedPredictor(std::initializer_list<std::pair<const FileId, FileId>> next)
      : next_(next) {}

  void observe(const TraceRecord&) override {}
  void predict(const TraceRecord& rec, std::size_t limit,
               PredictionList& out) override {
    const auto it = next_.find(rec.file);
    if (it != next_.end() && limit > 0) out.push_back(it->second);
  }
  [[nodiscard]] const char* name() const noexcept override { return "fixed"; }

 private:
  std::map<FileId, FileId> next_;
};

TEST(Replay, PerfectlyPredictablePatternGetsHighHitRatio) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b");
  for (int i = 0; i < 100; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const Trace t = mt.build();
  FixedPredictor p{{a, b}, {b, a}};
  ReplayConfig cfg;
  cfg.cache_capacity = 1;  // only prefetching can save the day
  const auto result = replay_trace(t, p, cfg);
  // With capacity 1 and alternating accesses, every demand access misses
  // under pure LRU; prefetching the other file turns most of them into
  // hits.
  EXPECT_GT(result.hit_ratio(), 0.8);
  EXPECT_GT(result.prefetch_accuracy(), 0.8);
}

TEST(Replay, NoopPredictorEqualsPlainCache) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b");
  for (int i = 0; i < 10; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const Trace t = mt.build();
  NoopPredictor p;
  ReplayConfig cfg;
  cfg.cache_capacity = 4;
  const auto result = replay_trace(t, p, cfg);
  // Two compulsory misses, everything else hits; zero prefetches.
  EXPECT_EQ(result.cache.prefetch_inserted, 0u);
  EXPECT_EQ(result.cache.demand.denominator(), 20u);
  EXPECT_EQ(result.cache.demand.numerator(), 18u);
}

TEST(Replay, AccuracyAccountsUnusedPrefetches) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  // b follows a once; later c always does. Predicting b after every a
  // prefetches a file that is never accessed again => low accuracy.
  mt.access(a);
  mt.access(b);
  for (int i = 0; i < 20; ++i) {
    mt.access(a);
    mt.access(c);
  }
  const Trace t = mt.build();
  FixedPredictor p{{a, b}};
  ReplayConfig cfg;
  cfg.cache_capacity = 2;
  const auto result = replay_trace(t, p, cfg);
  EXPECT_LT(result.prefetch_accuracy(), 0.5);
}

TEST(Replay, FetchableGateMatchesUngatedReplay) {
  const Trace trace = make_paper_trace(TraceKind::kHP, 7, 0.05);
  FarmerConfig cfg;
  cfg.attributes = trace.has_paths ? AttributeMask::all_with_path()
                                   : AttributeMask::all_with_fileid();
  ReplayConfig rc;
  rc.cache_capacity = std::max<std::size_t>(1, trace.file_count() / 20);
  for (const char* backend : {"farmer", "sharded"}) {
    SCOPED_TRACE(backend);
    std::uint64_t gated_calls = 0, ungated_calls = 0;
    FpaPredictor gated(std::make_unique<EvidenceCountingMiner>(
        make_miner(backend, cfg, trace.dict), gated_calls));
    PredictOnlyForwarder ungated(std::make_unique<FpaPredictor>(
        std::make_unique<EvidenceCountingMiner>(
            make_miner(backend, cfg, trace.dict), ungated_calls)));
    const ReplayResult g = replay_trace(trace, gated, rc);
    const ReplayResult u = replay_trace(trace, ungated, rc);
    EXPECT_EQ(g.cache.demand.numerator(), u.cache.demand.numerator());
    EXPECT_EQ(g.cache.demand.denominator(), u.cache.demand.denominator());
    EXPECT_EQ(g.cache.prefetch_inserted, u.cache.prefetch_inserted);
    EXPECT_EQ(g.cache.prefetch_used, u.cache.prefetch_used);
    EXPECT_EQ(g.cache.prefetch_evicted_unused,
              u.cache.prefetch_evicted_unused);
    EXPECT_EQ(g.cache.evictions, u.cache.evictions);
    EXPECT_EQ(g.predictor_footprint, u.predictor_footprint);
    // The gate engaged: it skipped some evidence passes, not all of them.
    EXPECT_GT(g.cache.prefetch_inserted, 0u);
    EXPECT_GT(gated_calls, 0u);
    EXPECT_LT(gated_calls, ungated_calls);
  }
}

}  // namespace
}  // namespace farmer
