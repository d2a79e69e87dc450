// CorrelationMiner::candidate_evidence: the batched form of the four point
// queries FPA re-checks per Correlator. Every backend must answer each
// field bit for bit like the matching point query when no ingest runs in
// between — the fused sharded walk, the concurrent backend's single-table
// walk, the durability decorator's forwarding and the default body alike.
// FPA's predictions through the batched query must match the per-query
// loop it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/miner_factory.hpp"
#include "common/rng.hpp"
#include "prefetch/fpa.hpp"
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
