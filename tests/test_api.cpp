// Tests for the mining API boundary: the validated config builder, the
// CorrelationMiner interface + CorrelatorView snapshots, and the
// MinerFactory registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/miner_factory.hpp"
#include "core/farmer.hpp"
#include "test_helpers.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

// ------------------------------------------------------- config builder --

TEST(ConfigBuilder, DefaultsAreValid) {
  const auto r = FarmerConfig::builder().build();
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().p, 0.7, 1e-12);
  EXPECT_TRUE(r.error().empty());
}

TEST(ConfigBuilder, SettersPropagate) {
  const auto r = FarmerConfig::builder()
                     .p(0.5)
                     .max_strength(0.2)
                     .window(8)
                     .lda_delta(0.05)
                     .max_successors(32)
                     .correlator_capacity(16)
                     .path_mode(PathMode::kDivided)
                     .build();
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().p, 0.5, 1e-12);
  EXPECT_NEAR(r.value().max_strength, 0.2, 1e-12);
  EXPECT_EQ(r.value().window, 8u);
  EXPECT_NEAR(r.value().lda_delta, 0.05, 1e-12);
  EXPECT_EQ(r.value().max_successors, 32u);
  EXPECT_EQ(r.value().correlator_capacity, 16u);
  EXPECT_EQ(r.value().path_mode, PathMode::kDivided);
}

TEST(ConfigBuilder, RejectsPOutsideUnitInterval) {
  EXPECT_FALSE(FarmerConfig::builder().p(-0.1).build().ok());
  EXPECT_FALSE(FarmerConfig::builder().p(1.1).build().ok());
  EXPECT_TRUE(FarmerConfig::builder().p(0.0).build().ok());
  EXPECT_TRUE(FarmerConfig::builder().p(1.0).build().ok());
  const auto r = FarmerConfig::builder().p(2.0).build();
  EXPECT_NE(r.error().find("p must be in [0, 1]"), std::string::npos);
}

TEST(ConfigBuilder, RejectsZeroWindow) {
  const auto r = FarmerConfig::builder().window(0).build();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("window"), std::string::npos);
  // Past the ring's capacity, even with an LDA step that keeps every slot
  // positive: the window would silently mine only its newest 16 files.
  const auto big = FarmerConfig::builder().window(17).lda_delta(0.05).build();
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.error().find("window must be <= 16"), std::string::npos);
  EXPECT_TRUE(FarmerConfig::builder().window(16).lda_delta(0.05).build().ok());
}

TEST(ConfigBuilder, RejectsLdaDeltaDrivingWindowNegative) {
  // window 8 with delta 0.2: distance 8 would contribute 1 - 7*0.2 = -0.4.
  const auto r = FarmerConfig::builder().window(8).lda_delta(0.2).build();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("lda_delta"), std::string::npos);
  // The paper's own configuration (window 4, delta 0.1) is fine.
  EXPECT_TRUE(FarmerConfig::builder().window(4).lda_delta(0.1).build().ok());
  // Exactly reaching zero at the window edge is allowed.
  EXPECT_TRUE(FarmerConfig::builder().window(5).lda_delta(0.25).build().ok());
  EXPECT_FALSE(FarmerConfig::builder().lda_delta(-0.1).build().ok());
}

TEST(ConfigBuilder, ValueOnFailedResultThrows) {
  const auto r = FarmerConfig::builder().p(2.0).build();
  ASSERT_FALSE(r.ok());
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(ConfigBuilder, RejectsZeroCapacities) {
  EXPECT_FALSE(FarmerConfig::builder().correlator_capacity(0).build().ok());
  EXPECT_FALSE(FarmerConfig::builder().max_successors(0).build().ok());
}

TEST(ConfigBuilder, ReportsEveryViolationAtOnce) {
  const auto r =
      FarmerConfig::builder().p(3.0).window(0).correlator_capacity(0).build();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("p must be"), std::string::npos);
  EXPECT_NE(r.error().find("window"), std::string::npos);
  EXPECT_NE(r.error().find("correlator_capacity"), std::string::npos);
}

// --------------------------------------------------------------- factory --

TEST(MinerFactory, BuiltInsAreRegistered) {
  EXPECT_EQ(registered_miners(),
            (std::vector<std::string>{"farmer", "sharded"}));
}

TEST(MinerFactory, ConstructsEachBuiltInWithMatchingName) {
  MicroTrace mt;
  (void)mt.file("a", "/p/a");
  for (const char* backend : {"farmer", "sharded"}) {
    const auto miner = make_miner(backend, FarmerConfig{}, mt.dict());
    ASSERT_NE(miner, nullptr);
    EXPECT_STREQ(miner->name(), backend);
  }
}

TEST(MinerFactory, UnknownBackendThrowsListingRegistered) {
  MicroTrace mt;
  try {
    (void)make_miner("no-such-miner", FarmerConfig{}, mt.dict());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-miner"), std::string::npos);
    EXPECT_NE(msg.find("farmer"), std::string::npos);
  }
}

TEST(MinerFactory, InvalidConfigThrows) {
  MicroTrace mt;
  FarmerConfig bad;
  bad.p = 7.0;
  EXPECT_THROW((void)make_miner("farmer", bad, mt.dict()),
               std::invalid_argument);
}

TEST(MinerFactory, ShardOptionControlsShardCount) {
  MicroTrace mt;
  MinerOptions opts;
  opts.shards = 3;
  const auto miner = make_miner("sharded", FarmerConfig{}, mt.dict(), opts);
  EXPECT_EQ(miner->stats().shards, 3u);
}

// ---------------------------------------------------------- polymorphism --

MicroTrace fixed_trace() {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId b = mt.file("b", "/home/u0/proj/b");
  const FileId c = mt.file("c", "/home/u0/proj/c");
  const FileId x = mt.file("x", "/var/other/x");
  for (int i = 0; i < 6; ++i) {
    mt.access(a, "u0", "pidA");
    mt.access(b, "u0", "pidA");
    mt.access(c, "u0", "pidA");
    mt.access(x, "u9", "pidB", "h9");
  }
  return mt;
}

TEST(CorrelationMinerInterface, FarmerAndSingleShardShardedAgree) {
  const MicroTrace mt = fixed_trace();
  MinerOptions one_shard;
  one_shard.shards = 1;
  const std::unique_ptr<CorrelationMiner> serial =
      make_miner("farmer", FarmerConfig{}, mt.dict());
  const std::unique_ptr<CorrelationMiner> sharded =
      make_miner("sharded", FarmerConfig{}, mt.dict(), one_shard);
  EXPECT_STREQ(sharded->name(), "sharded");

  for (const auto& r : mt.records()) {
    serial->observe(r);
    sharded->observe(r);
  }

  for (std::uint32_t f = 0; f < mt.dict()->files.size(); ++f) {
    const CorrelatorView ls = serial->snapshot(FileId(f));
    const CorrelatorView lm = sharded->snapshot(FileId(f));
    ASSERT_EQ(ls.size(), lm.size()) << "file " << f;
    for (std::size_t i = 0; i < ls.size(); ++i) {
      EXPECT_EQ(ls[i].file, lm[i].file) << "file " << f << " slot " << i;
      EXPECT_FLOAT_EQ(ls[i].degree, lm[i].degree);
    }
    EXPECT_NEAR(serial->correlation_degree(FileId(f), FileId(0)),
                sharded->correlation_degree(FileId(f), FileId(0)), 1e-12);
    EXPECT_EQ(serial->access_count(FileId(f)),
              sharded->access_count(FileId(f)));
  }
  EXPECT_EQ(serial->stats().requests, sharded->stats().requests);
  EXPECT_EQ(serial->stats().pairs_evaluated,
            sharded->stats().pairs_evaluated);
}

TEST(CorrelationMinerInterface, BatchAndSerialIngestAgreeBehindInterface) {
  const MicroTrace mt = fixed_trace();
  MinerOptions opts;
  opts.shards = 4;
  const auto batched = make_miner("sharded", FarmerConfig{}, mt.dict(), opts);
  const auto serial = make_miner("sharded", FarmerConfig{}, mt.dict(), opts);
  batched->observe_batch(mt.records());
  for (const auto& r : mt.records()) serial->observe(r);
  for (std::uint32_t f = 0; f < mt.dict()->files.size(); ++f) {
    const CorrelatorView lb = batched->snapshot(FileId(f));
    const CorrelatorView ls = serial->snapshot(FileId(f));
    ASSERT_EQ(lb.size(), ls.size());
    for (std::size_t i = 0; i < lb.size(); ++i) {
      EXPECT_EQ(lb[i].file, ls[i].file);
      EXPECT_FLOAT_EQ(lb[i].degree, ls[i].degree);
    }
  }
}

// The MinerStats field contract: the apply counters belong to the sharded
// batch-apply path alone, and the unsharded backend reports them as
// explicit zeros, so "0" means "not applicable" instead of "whatever the
// backend left there".
TEST(MinerStatsContract, FarmerKeepsApplyCountersAtZero) {
  const MicroTrace mt = fixed_trace();
  for (const char* backend : {"farmer", "sharded"}) {
    const auto miner = make_miner(backend, FarmerConfig{}, mt.dict());
    miner->observe_batch(mt.records());
    miner->flush();  // no-op, but the contract must hold after it too
    const MinerStats s = miner->stats();
    EXPECT_EQ(s.requests, mt.records().size()) << backend;
    if (std::string_view(backend) == "sharded") {
      EXPECT_EQ(s.apply_batches, 1u) << backend;  // one observe_batch above
    } else {
      EXPECT_EQ(s.apply_batches, 0u) << backend;
      EXPECT_EQ(s.apply_parallel_records, 0u) << backend;
    }
  }
}

// The apply-counter side of the contract, pinned at deterministic
// apply_threads settings (the default is "auto" = hardware parallelism,
// which differs per machine): serial apply never counts parallel records,
// multi-lane apply counts every record of every multi-shard batch.
TEST(MinerStatsContract, ShardedApplyCountersFollowLaneCount) {
  const MicroTrace mt = fixed_trace();
  MinerOptions serial;
  serial.shards = 4;
  serial.apply_threads = 1;
  const auto one = make_miner("sharded", FarmerConfig{}, mt.dict(), serial);
  one->observe_batch(mt.records());
  EXPECT_EQ(one->stats().apply_batches, 1u);
  EXPECT_EQ(one->stats().apply_parallel_records, 0u);

  MinerOptions lanes = serial;
  lanes.apply_threads = 4;
  const auto four = make_miner("sharded", FarmerConfig{}, mt.dict(), lanes);
  four->observe_batch(mt.records());
  four->observe_batch(mt.records());
  EXPECT_EQ(four->stats().apply_batches, 2u);
  EXPECT_EQ(four->stats().apply_parallel_records,
            2u * mt.records().size());
}

// --------------------------------------------------------------- snapshot --

bool same_entries(const CorrelatorView& got,
                  const std::vector<Correlator>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const Correlator& x, const Correlator& y) {
                      return x.file == y.file && x.degree == y.degree;
                    });
}

// A snapshot is a value: it keeps the entries snapshot() returned however
// much the miner ingests afterwards, on every backend and behind the
// durability decorator.
TEST(CorrelatorView, SnapshotKeepsItsEntriesAcrossFurtherIngest) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  const FileId c = mt.file("c", "/p/c");
  for (int i = 0; i < 6; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const std::size_t before = mt.records().size();
  for (int i = 0; i < 6; ++i) {
    mt.access(a);
    mt.access(c);
  }
  const std::span<const TraceRecord> records(mt.records());
  const std::string dir = ::testing::TempDir() + "snapshot_value_durable";
  for (const std::string& name : registered_miners()) {
    for (const bool durable : {false, true}) {
      SCOPED_TRACE(name + (durable ? " behind the durability decorator" : ""));
      std::filesystem::remove_all(dir);
      MinerOptions opts;
      if (durable) opts.persist_dir = dir;
      const auto miner = make_miner(name, FarmerConfig{}, mt.dict(), opts);
      miner->observe_batch(records.first(before));
      const CorrelatorView held = miner->snapshot(a);
      ASSERT_FALSE(held.empty());
      const std::vector<Correlator> want(held.begin(), held.end());
      for (const TraceRecord& r : records.subspan(before)) miner->observe(r);
      // a's live list changed, so a view into it would have changed too.
      ASSERT_FALSE(same_entries(miner->snapshot(a), want));
      EXPECT_TRUE(same_entries(held, want));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace farmer
