// CorrelationMiner::candidate_evidence: the batched form of the four point
// queries FPA re-checks per Correlator. Every backend must answer each
// field bit for bit like the matching point query when no ingest runs in
// between — the fused sharded walk, the durability decorator's forwarding
// and the default body alike.
// FPA's predictions through the batched query must match the per-query
// loop it replaced.
//
// CorrelationMiner::any_listed: the pre-check FPA asks before it pays for
// a snapshot. A false answer must certify that no snapshot entry passes
// the test, on every backend; a merging backend may answer true for an
// entry its merge cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/miner_factory.hpp"
#include "common/rng.hpp"
#include "core/sharded_farmer.hpp"
#include "prefetch/fpa.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

constexpr TraceKind kTenants[] = {TraceKind::kHP, TraceKind::kINS};

/// Candidates for requested file `a`: its own Correlator List, files drawn
/// from the whole namespace (other shards and other tenants), and FileIds
/// no record ever carried.
std::vector<Correlator> candidates_for(const CorrelationMiner& miner,
                                       FileId a, std::uint32_t files,
                                       Rng& rng) {
  std::vector<Correlator> out;
  for (const Correlator& c : miner.snapshot(a)) out.push_back(c);
  for (int k = 0; k < 6; ++k)
    out.push_back(
        {FileId(static_cast<std::uint32_t>(rng.next_below(files))), 0.0f});
  out.push_back({FileId(files), 0.0f});
  out.push_back({FileId(files * 2 + 7), 0.0f});
  out.push_back({a, 0.0f});  // the requested file itself
  return out;
}

/// Asserts candidate_evidence == the four point queries, bitwise, for a
/// sample of requested files (including one never seen).
void expect_matches_point_queries(const CorrelationMiner& miner,
                                  std::uint32_t files, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FileId> requested;
  for (int k = 0; k < 40; ++k)
    requested.emplace_back(static_cast<std::uint32_t>(rng.next_below(files)));
  requested.emplace_back(files + 3);
  std::size_t listed = 0;
  for (const FileId a : requested) {
    const std::vector<Correlator> cands = candidates_for(miner, a, files, rng);
    listed += cands.size();
    std::vector<PairEvidence> out(cands.size() + 1);
    const PairEvidence sentinel{42, -1.0, -2.0, -3.0};
    out.back() = sentinel;
    miner.candidate_evidence(a, cands, out);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const FileId b = cands[i].file;
      const PairEvidence& e = out[i];
      ASSERT_EQ(e.access_count, miner.access_count(b))
          << miner.name() << " a=" << a.value() << " b=" << b.value();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(e.frequency),
                std::bit_cast<std::uint64_t>(miner.access_frequency(a, b)))
          << miner.name() << " a=" << a.value() << " b=" << b.value();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(e.similarity),
                std::bit_cast<std::uint64_t>(miner.semantic_similarity(a, b)))
          << miner.name() << " a=" << a.value() << " b=" << b.value();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(e.degree),
                std::bit_cast<std::uint64_t>(miner.correlation_degree(a, b)))
          << miner.name() << " a=" << a.value() << " b=" << b.value();
    }
    // Entries past the candidates are left alone.
    EXPECT_EQ(out.back().access_count, sentinel.access_count);
    EXPECT_EQ(out.back().degree, sentinel.degree);
  }
  EXPECT_GT(listed, requested.size() * 9) << miner.name();
}

TEST(CandidateEvidence, EveryBackendMatchesPointQueriesBitwise) {
  for (const std::uint64_t seed : {61u, 67u}) {
    const MultiTenantTrace mt = make_multi_tenant_trace(kTenants, seed, 0.02);
    const auto files = static_cast<std::uint32_t>(mt.trace.file_count());
    for (const std::string& name : registered_miners()) {
      MinerOptions opts;
      opts.shards = 4;
      const auto miner = make_miner(name, FarmerConfig{}, mt.trace.dict, opts);
      constexpr std::size_t kChunk = 256;
      for (std::size_t i = 0; i < mt.trace.records.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, mt.trace.records.size() - i);
        miner->observe_batch(
            std::span<const TraceRecord>(&mt.trace.records[i], n));
      }
      miner->flush();
      SCOPED_TRACE(name);
      expect_matches_point_queries(*miner, files, seed);
    }
  }
}

TEST(CandidateEvidence, DurableDecoratorForwardsToTheFusedWalk) {
  const MultiTenantTrace mt = make_multi_tenant_trace(kTenants, 71, 0.02);
  const std::string dir = ::testing::TempDir() + "candidate_evidence_durable";
  std::filesystem::remove_all(dir);
  MinerOptions opts;
  opts.shards = 4;
  opts.persist_dir = dir;
  {
    const auto miner = make_miner("sharded", FarmerConfig{}, mt.trace.dict,
                                  opts);
    miner->observe_batch(mt.trace.records);
    expect_matches_point_queries(
        *miner, static_cast<std::uint32_t>(mt.trace.file_count()), 71);
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ any_listed

/// Checks any_listed against the snapshot for every file (and one never
/// seen) under five tests: accept all, reject all and `id % 3 == r`. A
/// false answer must mean no snapshot entry passes; with `exact` the answer
/// must equal that scan. The interface's default body, a scan of
/// snapshot(f), must equal it on every backend.
void expect_any_listed_contract(const CorrelationMiner& miner,
                                std::uint32_t files, bool exact) {
  std::size_t yes = 0, no = 0;
  for (std::uint32_t i = 0; i <= files; ++i) {
    const FileId f(i);
    const CorrelatorView snap = miner.snapshot(f);
    const auto check = [&](FunctionRef<bool(FileId)> test, int which) {
      const bool listed = miner.any_listed(f, test);
      const bool in_snapshot =
          std::any_of(snap.begin(), snap.end(),
                      [&](const Correlator& c) { return test(c.file); });
      if (!listed) {
        ASSERT_FALSE(in_snapshot)
            << miner.name() << " file " << i << " test " << which;
      }
      if (exact) {
        ASSERT_EQ(listed, in_snapshot)
            << miner.name() << " file " << i << " test " << which;
      }
      ASSERT_EQ(miner.CorrelationMiner::any_listed(f, test), in_snapshot)
          << miner.name() << " file " << i << " test " << which
          << " (default body)";
      ++(listed ? yes : no);
    };
    check([](FileId) { return true; }, 0);
    check([](FileId) { return false; }, 1);
    for (std::uint32_t r = 0; r < 3; ++r)
      check([r](FileId g) { return g.value() % 3 == r; },
            2 + static_cast<int>(r));
    // Accept-all is exact everywhere: the merge of non-empty shard lists
    // is never empty.
    ASSERT_EQ(miner.any_listed(f, [](FileId) { return true; }), !snap.empty())
        << miner.name() << " file " << i;
  }
  EXPECT_GT(yes, files / 4) << miner.name();
  EXPECT_GT(no, files) << miner.name();
}

TEST(AnyListed, FalseCertifiesNoSnapshotEntryOnEveryBackend) {
  const MultiTenantTrace mt = make_multi_tenant_trace(kTenants, 79, 0.02);
  const auto files = static_cast<std::uint32_t>(mt.trace.file_count());
  const std::string dir = ::testing::TempDir() + "any_listed_durable";
  std::filesystem::remove_all(dir);
  std::vector<std::pair<std::string, std::unique_ptr<CorrelationMiner>>>
      miners;
  for (const std::string& name : registered_miners()) {
    MinerOptions opts;
    opts.shards = 4;
    miners.emplace_back(name,
                        make_miner(name, FarmerConfig{}, mt.trace.dict, opts));
  }
  MinerOptions durable;
  durable.shards = 4;
  durable.persist_dir = dir;
  miners.emplace_back(
      "durable sharded",
      make_miner("sharded", FarmerConfig{}, mt.trace.dict, durable));
  for (const auto& [label, miner] : miners) {
    SCOPED_TRACE(label);
    constexpr std::size_t kChunk = 256;
    for (std::size_t i = 0; i < mt.trace.records.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, mt.trace.records.size() - i);
      miner->observe_batch(
          std::span<const TraceRecord>(&mt.trace.records[i], n));
    }
    miner->flush();
    expect_any_listed_contract(*miner, files, label == "farmer");
  }
  miners.clear();
  std::filesystem::remove_all(dir);
}

TEST(AnyListed, TrueForAnEntryTheMergeCutAtCapacity) {
  // Shard 0 lists eight strong Correlators of `a` (a full list), shard 1
  // one weak one, `cut`. The merge keeps the eight, so `cut` is in no
  // snapshot, yet the in-place scan finds it: FPA has to re-check the
  // snapshot after a true answer.
  testing::MicroTrace mt;
  const FileId a = mt.file("a");
  const FileId cut = mt.file("cut");
  std::vector<Correlator> strong;
  for (int i = 0; i < 8; ++i)
    strong.push_back({mt.file("s" + std::to_string(i)), 0.9f});
  const FarmerConfig cfg;
  ASSERT_EQ(cfg.correlator_capacity, strong.size());
  const std::string planted = ::testing::TempDir() + "any_listed_planted";
  const std::string durable = ::testing::TempDir() + "any_listed_cut_wal";
  std::filesystem::remove_all(planted);
  std::filesystem::remove_all(durable);
  {
    ShardedFarmer source(cfg, mt.dict(), 2);
    source.shard_mut(0).restore_node(a, 1, {}, strong, {});
    const Correlator weak{cut, 0.5f};
    source.shard_mut(1).restore_node(a, 1, {}, {&weak, 1}, {});
    source.save(planted);
  }
  const auto is_cut = [&](FileId f) { return f == cut; };
  // Every backend whose snapshot merges: the sharded scan, and the
  // durability decorator over it.
  const std::pair<const char*, bool> backends[] = {{"sharded", false},
                                                   {"sharded", true}};
  for (const auto& [backend, persist] : backends) {
    SCOPED_TRACE(std::string(backend) + (persist ? " durable" : ""));
    MinerOptions opts;
    opts.shards = 2;
    if (persist) opts.persist_dir = durable;
    const auto miner = make_miner(backend, cfg, mt.dict(), opts);
    miner->load(planted);
    const CorrelatorView snap = miner->snapshot(a);
    ASSERT_EQ(snap.size(), strong.size());
    EXPECT_TRUE(std::none_of(snap.begin(), snap.end(),
                             [&](const Correlator& c) {
                               return is_cut(c.file);
                             }));
    EXPECT_TRUE(miner->any_listed(a, is_cut));
  }
  std::filesystem::remove_all(planted);
  std::filesystem::remove_all(durable);
}

/// FPA's re-check as four point queries per candidate — the loop
/// FpaPredictor::predict ran before candidate_evidence existed.
void per_query_predict(const CorrelationMiner& miner, const TraceRecord& rec,
                       std::size_t limit, PredictionList& out) {
  const CorrelatorView list = miner.snapshot(rec.file);
  if (list.empty() || limit == 0) return;
  struct Ranked {
    FileId file;
    double degree;
  };
  std::vector<Ranked> ranked;
  for (const Correlator& c : list) {
    if (c.file == rec.file) continue;
    if (miner.access_count(c.file) < 2) continue;
    const double freq = miner.access_frequency(rec.file, c.file);
    const double sim_now = miner.semantic_similarity(rec.file, c.file);
    if (freq < FpaPredictor::kMinReliableFrequency &&
        sim_now < FpaPredictor::kMinReferenceSimilarity)
      continue;
    const double now = miner.correlation_degree(rec.file, c.file);
    ranked.push_back(
        {c.file, 0.5 * static_cast<double>(c.degree) + 0.5 * now});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.degree != b.degree) return a.degree > b.degree;
              return a.file < b.file;
            });
  for (const Ranked& r : ranked) {
    if (out.size() >= limit) break;
    out.push_back(r.file);
  }
}

TEST(CandidateEvidence, FpaOverShardedMatchesThePerQueryLoop) {
  const MultiTenantTrace mt = make_multi_tenant_trace(kTenants, 73, 0.02);
  MinerOptions opts;
  opts.shards = 4;
  FpaPredictor fpa(make_miner("sharded", FarmerConfig{}, mt.trace.dict, opts));
  std::size_t predicted = 0;
  for (std::size_t r = 0; r < mt.trace.records.size(); ++r) {
    const TraceRecord& rec = mt.trace.records[r];
    fpa.observe(rec);
    PredictionList fused, reference;
    fpa.predict(rec, 4, fused);
    per_query_predict(fpa.model(), rec, 4, reference);
    ASSERT_EQ(fused.size(), reference.size()) << "record " << r;
    for (std::size_t i = 0; i < fused.size(); ++i)
      ASSERT_EQ(fused[i], reference[i]) << "record " << r;
    predicted += fused.empty() ? 0 : 1;
  }
  EXPECT_GT(predicted, mt.trace.records.size() / 4);
}

}  // namespace
}  // namespace farmer
