// Tests for the FARMER core: the four-stage pipeline, CoMiner semantics,
// threshold filtering, the Nexus/PBS reduction properties, and sharding.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/farmer.hpp"
#include "core/sharded_farmer.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

FarmerConfig base_config() {
  FarmerConfig cfg;
  cfg.p = 0.7;
  cfg.max_strength = 0.4;
  cfg.window = 4;
  return cfg;
}

TEST(Farmer, MinesAdjacentPairInSameContext) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId b = mt.file("b", "/home/u0/proj/b");
  // Same user/pid/host and same directory: a then b, repeatedly.
  for (int i = 0; i < 5; ++i) {
    mt.access(a);
    mt.access(b);
  }
  Farmer model(base_config(), mt.dict());
  for (const auto& r : mt.records()) model.observe(r);

  const CorrelatorView list = model.snapshot(a);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list[0].file, b);
  EXPECT_GE(list[0].degree, 0.4f);
}

TEST(Farmer, CorrelationDegreeCombinesBothFactors) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId b = mt.file("b", "/home/u0/proj/b");
  mt.access(a);
  mt.access(b);
  Farmer model(base_config(), mt.dict());
  for (const auto& r : mt.records()) model.observe(r);

  // sim: user+pid+host match (3) + dirsim 3/4, over 4 items = 0.9375.
  // F(a,b) = 1.0 / 1 access = 1.0. R = 0.7*0.9375 + 0.3*1.0 = 0.95625.
  EXPECT_NEAR(model.correlation_degree(a, b), 0.95625, 1e-9);
}

TEST(Farmer, UnrelatedContextFilteredByThreshold) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId x = mt.file("x", "/var/other/x");
  // Interleaved stream from different user+pid+host: the sequence factor
  // alone (0.3 * F) cannot reach the 0.4 threshold.
  for (int i = 0; i < 5; ++i) {
    mt.access(a, "u0", "pid0", "h0");
    mt.access(x, "u9", "pid9", "h9");
  }
  Farmer model(base_config(), mt.dict());
  for (const auto& r : mt.records()) model.observe(r);

  for (const auto& c : model.snapshot(a)) EXPECT_NE(c.file, x);
}

TEST(Farmer, ZeroThresholdKeepsWeakPairs) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId x = mt.file("x", "/var/other/x");
  for (int i = 0; i < 5; ++i) {
    mt.access(a, "u0", "pid0", "h0");
    mt.access(x, "u9", "pid9", "h9");
  }
  auto cfg = base_config();
  cfg.max_strength = 0.0;
  Farmer model(cfg, mt.dict());
  for (const auto& r : mt.records()) model.observe(r);

  bool found = false;
  for (const auto& c : model.snapshot(a)) found |= (c.file == x);
  EXPECT_TRUE(found);
}

TEST(Farmer, WindowAssignsLdaWeights) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  const FileId c = mt.file("c", "/p/c");
  const FileId d = mt.file("d", "/p/d");
  mt.access(a);
  mt.access(b);
  mt.access(c);
  mt.access(d);
  Farmer model(base_config(), mt.dict());
  for (const auto& r : mt.records()) model.observe(r);

  const auto& g = model.graph();
  EXPECT_NEAR(g.edge_weight(a, b), 1.0, 1e-6);
  EXPECT_NEAR(g.edge_weight(a, c), 0.9, 1e-6);
  EXPECT_NEAR(g.edge_weight(a, d), 0.8, 1e-6);
}

TEST(Farmer, PEqualZeroReducesToSequenceOnly) {
  // Paper: "If the weight value is 0, FARMER is reduced to Nexus."
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/q/b");  // different dir: no semantic help
  mt.access(a, "u0", "pid0");
  mt.access(b, "u1", "pid1");  // different context too
  auto cfg = base_config();
  cfg.p = 0.0;
  cfg.max_strength = 0.0;
  Farmer model(cfg, mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  // Degree must equal F(a,b) exactly = 1.0 (one access of a, weight 1).
  EXPECT_NEAR(model.correlation_degree(a, b), 1.0, 1e-9);
}

TEST(Farmer, PEqualOneIsPureSemantic) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId b = mt.file("b", "/home/u0/proj/b");
  mt.access(a);
  mt.access(b);
  auto cfg = base_config();
  cfg.p = 1.0;
  Farmer model(cfg, mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  EXPECT_NEAR(model.correlation_degree(a, b), 0.9375, 1e-9);
}

TEST(Farmer, SemanticVectorTracksLatestContext) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId b = mt.file("b", "/home/u0/proj/b");
  // First access by u0/pid0, later the pair runs under u5/pid5: the pair
  // should still be similar because vectors update to the latest context.
  mt.access(a, "u0", "pid0");
  mt.access(b, "u0", "pid0");
  mt.access(a, "u5", "pid5");
  mt.access(b, "u5", "pid5");
  Farmer model(base_config(), mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  EXPECT_GT(model.correlation_degree(a, b), 0.6);
}

/// Field-by-field equality of two signatures.
void expect_same_signature(const Signature& got, const Signature& want) {
  ASSERT_EQ(got.tokens.size(), want.tokens.size());
  for (std::size_t i = 0; i < got.tokens.size(); ++i)
    EXPECT_EQ(got.tokens[i], want.tokens[i]) << "token " << i;
  EXPECT_EQ(got.path_len, want.path_len);
}

/// `latest[f]` is the last record of file f the miner saw (nullptr: none).
/// Every such file must hold exactly the signature build_signature makes
/// from that record's extraction; every other file must hold no state.
void expect_signatures_built_from(
    const Farmer& miner, const std::vector<const TraceRecord*>& latest,
    const Extractor& ex, const FarmerConfig& cfg) {
  SemanticVector v;
  for (std::size_t i = 0; i < latest.size(); ++i) {
    const FileId f(static_cast<std::uint32_t>(i));
    const Signature* sig = miner.signature_of(f);
    if (latest[i] == nullptr) {
      EXPECT_EQ(sig, nullptr) << "file " << i;
      continue;
    }
    ASSERT_NE(sig, nullptr) << "file " << i;
    ex.extract(*latest[i], v);
    SCOPED_TRACE("file " + std::to_string(i));
    expect_same_signature(*sig,
                          build_signature(v, cfg.attributes, cfg.path_mode));
  }
}

TEST(Farmer, StoredSignatureIsBuiltFromLatestRequest) {
  // A micro trace whose middle request extracts to a default-constructed
  // SemanticVector (no path, every token invalid): the file still has a
  // recorded context, with an empty signature.
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/a");
  mt.access(a);
  TraceRecord& r = mt.access(mt.file("bare"));
  r.user_token = r.process_token = r.host_token = TokenId();
  r.dev_token = r.fid_token = TokenId();
  mt.access(a, "u1", "pid1");
  {
    SemanticVector v;
    Extractor(mt.dict()).extract(mt.records()[1], v);
    ASSERT_TRUE(v.path_components.empty());
    ASSERT_FALSE(v.user.valid() || v.process.valid() || v.host.valid() ||
                 v.dev.valid() || v.fid.valid());
  }
  const Trace traces[] = {make_paper_trace(TraceKind::kHP, 19, 0.02),
                          make_paper_trace(TraceKind::kINS, 19, 0.02),
                          mt.build()};

  FarmerConfig dpa;
  dpa.path_mode = PathMode::kDivided;
  FarmerConfig fileid;
  fileid.attributes = AttributeMask::all_with_fileid();
  const std::pair<const char*, FarmerConfig> configs[] = {
      {"ipa", FarmerConfig{}}, {"dpa", dpa}, {"fileid", fileid}};

  constexpr std::size_t kShards = 4;
  for (const Trace& trace : traces) {
    const Extractor ex(trace.dict);
    const std::size_t files = trace.dict->files.size();
    for (const auto& [name, cfg] : configs) {
      SCOPED_TRACE(trace.name + std::string(" / ") + name);
      Farmer farmer(cfg, trace.dict);
      farmer.observe_batch(trace.records);
      std::vector<const TraceRecord*> latest(files, nullptr);
      for (const TraceRecord& rec : trace.records)
        latest[rec.file.value()] = &rec;
      expect_signatures_built_from(farmer, latest, ex, cfg);

      ShardedFarmer sharded(cfg, trace.dict, kShards);
      sharded.observe_batch(trace.records);
      std::vector<std::vector<const TraceRecord*>> routed(
          kShards, std::vector<const TraceRecord*>(files, nullptr));
      for (const TraceRecord& rec : trace.records)
        routed[sharded.shard_of(rec)][rec.file.value()] = &rec;
      for (std::size_t s = 0; s < kShards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        expect_signatures_built_from(sharded.shard(s), routed[s], ex, cfg);
      }
    }
  }
}

TEST(Farmer, DegreeDecaysAsFrequencyDrops) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p1/a");
  const FileId b = mt.file("b", "/p2/b");
  mt.access(a, "u0", "pid0");
  mt.access(b, "u0", "pid0");  // once: F = 1/1
  // Then a is accessed many times without b following.
  for (int i = 0; i < 8; ++i) mt.access(a, "u0", "pid" + std::to_string(i));
  Farmer model(base_config(), mt.dict());
  std::vector<double> degrees;
  for (const auto& r : mt.records()) {
    model.observe(r);
    degrees.push_back(model.correlation_degree(a, b));
  }
  // F(a,b) = 1/9 at the end; degree must have decreased.
  EXPECT_LT(degrees.back(), degrees[1]);
}

TEST(Farmer, StatsCountRequestsAndPairs) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  mt.access(a);
  mt.access(b);
  Farmer model(base_config(), mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  const auto st = model.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.pairs_evaluated, 1u);
}

TEST(Farmer, FootprintGrowsWithFiles) {
  MicroTrace mt;
  std::vector<FileId> files;
  for (int i = 0; i < 50; ++i)
    files.push_back(mt.file("f" + std::to_string(i), "/p/f"));
  for (const FileId f : files) mt.access(f);
  Farmer model(base_config(), mt.dict());
  const auto before = model.footprint_bytes();
  for (const auto& r : mt.records()) model.observe(r);
  EXPECT_GT(model.footprint_bytes(), before);
}

TEST(Farmer, CorrelatorListStaysSorted) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/h/u/p/a");
  const FileId b = mt.file("b", "/h/u/p/b");
  const FileId c = mt.file("c", "/h/u/p/c");
  for (int i = 0; i < 4; ++i) {
    mt.access(a);
    mt.access(b);
    mt.access(c);
  }
  Farmer model(base_config(), mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  const CorrelatorView list = model.snapshot(a);
  for (std::size_t i = 1; i < list.size(); ++i)
    EXPECT_GE(list[i - 1].degree, list[i].degree);
}

TEST(Farmer, FileIdAttributesWorkWithoutPaths) {
  // INS/RES style: no path info at all; dev+fid carry the locality.
  MicroTrace mt;
  const FileId a = mt.file("a");
  const FileId b = mt.file("b");
  for (int i = 0; i < 5; ++i) {
    mt.access(a);
    mt.access(b);
  }
  auto cfg = base_config();
  cfg.attributes = AttributeMask::all_with_fileid();
  Farmer model(cfg, mt.dict());
  for (const auto& r : mt.records()) model.observe(r);
  const CorrelatorView list = model.snapshot(a);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list[0].file, b);
}

// -------------------------------------------------------------- sharded --

TEST(ShardedFarmer, SingleShardMatchesSerialFarmer) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  for (int i = 0; i < 6; ++i) {
    mt.access(a);
    mt.access(b);
  }
  Farmer serial(base_config(), mt.dict());
  ShardedFarmer sharded(base_config(), mt.dict(), 1);
  for (const auto& r : mt.records()) {
    serial.observe(r);
    sharded.observe(r);
  }
  const CorrelatorView sl = serial.snapshot(a);
  const CorrelatorView ml = sharded.snapshot(a);
  ASSERT_EQ(ml.size(), sl.size());
  for (std::size_t i = 0; i < sl.size(); ++i) {
    EXPECT_EQ(ml[i].file, sl[i].file);
    EXPECT_FLOAT_EQ(ml[i].degree, sl[i].degree);
  }
}

TEST(ShardedFarmer, BatchIngestEqualsSerialIngest) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  const FileId c = mt.file("c", "/p/c");
  for (int i = 0; i < 8; ++i) {
    mt.access(a, "u0", "pidA");
    mt.access(b, "u0", "pidA");
    mt.access(c, "u1", "pidB");
  }
  ShardedFarmer one(base_config(), mt.dict(), 4);
  ShardedFarmer two(base_config(), mt.dict(), 4);
  for (const auto& r : mt.records()) one.observe(r);
  two.observe_batch(mt.records());
  const CorrelatorView la = one.snapshot(a);
  const CorrelatorView lb = two.snapshot(a);
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].file, lb[i].file);
    EXPECT_FLOAT_EQ(la[i].degree, lb[i].degree);
  }
}

TEST(ShardedFarmer, MergedListSortedAndDeduplicated) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  // Two pids -> two shards (likely); both observe a->b.
  for (int i = 0; i < 4; ++i) {
    mt.access(a, "u0", "pidA");
    mt.access(b, "u0", "pidA");
    mt.access(a, "u0", "pidB");
    mt.access(b, "u0", "pidB");
  }
  ShardedFarmer sharded(base_config(), mt.dict(), 4);
  for (const auto& r : mt.records()) sharded.observe(r);
  const CorrelatorView list = sharded.snapshot(a);
  // No duplicate successors.
  for (std::size_t i = 0; i < list.size(); ++i)
    for (std::size_t j = i + 1; j < list.size(); ++j)
      EXPECT_NE(list[i].file, list[j].file);
  for (std::size_t i = 1; i < list.size(); ++i)
    EXPECT_GE(list[i - 1].degree, list[i].degree);
}

/// The merge rule written out: concatenate the shard lists, sort by
/// (degree desc, FileId asc), keep each file's first entry, cap.
std::vector<Correlator> reference_merge(const ShardedFarmer& sharded,
                                        FileId f, std::size_t capacity) {
  std::vector<Correlator> all;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s)
    for (const Correlator& c : sharded.shard(s).correlator_list(f))
      all.push_back(c);
  std::sort(all.begin(), all.end(),
            [](const Correlator& a, const Correlator& b) {
              if (a.degree != b.degree) return a.degree > b.degree;
              return a.file < b.file;
            });
  std::vector<Correlator> out;
  for (const Correlator& c : all) {
    if (out.size() >= capacity) break;
    if (std::none_of(out.begin(), out.end(), [&](const Correlator& o) {
          return o.file == c.file;
        }))
      out.push_back(c);
  }
  return out;
}

void expect_same_list(std::span<const Correlator> got,
                      std::span<const Correlator> want, FileId f) {
  ASSERT_EQ(got.size(), want.size()) << "file " << f.value();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].file, want[i].file)
        << "file " << f.value() << " entry " << i;
    EXPECT_EQ(got[i].degree, want[i].degree)
        << "file " << f.value() << " entry " << i;
  }
}

/// True when some equal-degree neighbours in `shard`'s list for `f` are
/// out of FileId order, the order CorrelationGraph::upsert_correlator
/// produces for a newcomer that ties an existing entry.
bool has_tie_out_of_order(const Farmer& shard, FileId f) {
  const auto& list = shard.correlator_list(f);
  for (std::size_t i = 1; i < list.size(); ++i)
    if (list[i - 1].degree == list[i].degree &&
        list[i].file < list[i - 1].file)
      return true;
  return false;
}

TEST(ShardedFarmer, MergeSortsTiesByFileId) {
  MicroTrace mt;
  const FileId a = mt.file("a");
  std::vector<FileId> x;
  for (int i = 0; i < 13; ++i) x.push_back(mt.file("x" + std::to_string(i)));
  FarmerConfig cfg = base_config();
  ASSERT_EQ(cfg.correlator_capacity, 8u);
  ShardedFarmer sharded(cfg, mt.dict(), 4);
  const auto plant = [&](std::size_t shard,
                         std::vector<Correlator> correlators) {
    sharded.shard_mut(shard).restore_node(a, 1, {}, correlators, {});
  };
  // Equal degrees with the larger FileId first, as upsert_correlator
  // leaves a tie; x2 listed by two shards at different degrees; ten
  // distinct files for a capacity of eight.
  plant(0, {{x[5], 0.9f}, {x[2], 0.9f}, {x[9], 0.7f}, {x[1], 0.7f}});
  plant(1, {{x[2], 0.95f}, {x[7], 0.6f}, {x[3], 0.6f}});
  plant(3, {{x[12], 0.5f}, {x[11], 0.5f}, {x[10], 0.5f}, {x[8], 0.4f}});
  ASSERT_TRUE(has_tie_out_of_order(sharded.shard(0), a));

  const CorrelatorView merged = sharded.snapshot(a);
  expect_same_list(merged.entries(), reference_merge(sharded, a, 8), a);
  const std::vector<Correlator> want = {
      {x[2], 0.95f}, {x[5], 0.9f}, {x[1], 0.7f}, {x[9], 0.7f},
      {x[3], 0.6f},  {x[7], 0.6f}, {x[10], 0.5f}, {x[11], 0.5f}};
  expect_same_list(merged.entries(), want, a);
}

TEST(ShardedFarmer, MergeMatchesReferenceOnEveryFileOfAPaperTrace) {
  const Trace trace = make_paper_trace(TraceKind::kHP, 11, 0.05);
  FarmerConfig cfg;
  cfg.attributes = trace.has_paths ? AttributeMask::all_with_path()
                                   : AttributeMask::all_with_fileid();
  ShardedFarmer sharded(cfg, trace.dict, 4);
  sharded.observe_batch(trace.records);
  std::size_t listed = 0, tied = 0;
  for (std::uint32_t i = 0; i < trace.file_count(); ++i) {
    const FileId f(i);
    const CorrelatorView merged = sharded.snapshot(f);
    expect_same_list(merged.entries(),
                     reference_merge(sharded, f, cfg.correlator_capacity), f);
    listed += merged.empty() ? 0 : 1;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s)
      tied += has_tie_out_of_order(sharded.shard(s), f) ? 1 : 0;
  }
  EXPECT_GT(listed, trace.file_count() / 10);
  // The sweep reaches the lists a merge trusting shard order would get
  // wrong.
  EXPECT_GT(tied, 0u);
}

TEST(ShardedFarmer, FootprintSumsShards) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  mt.access(a);
  ShardedFarmer sharded(base_config(), mt.dict(), 3);
  EXPECT_EQ(sharded.shard_count(), 3u);
  EXPECT_GT(sharded.footprint_bytes(), 0u);
}

}  // namespace
}  // namespace farmer
