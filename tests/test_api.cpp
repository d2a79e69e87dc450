// Tests for the mining API boundary: config validation, the
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

// ---------------------------------------------------- config validation --
// The suite keeps its historical name; it checks FarmerConfig::validate(),
// which make_miner runs on every config it is given.

TEST(ConfigBuilder, DefaultsAreValid) {
  const FarmerConfig cfg;
  EXPECT_TRUE(cfg.validate().empty());
  EXPECT_NEAR(cfg.p, 0.7, 1e-12);
}

TEST(ConfigBuilder, RejectsPOutsideUnitInterval) {
  EXPECT_FALSE(FarmerConfig{.p = -0.1}.validate().empty());
  EXPECT_FALSE(FarmerConfig{.p = 1.1}.validate().empty());
  EXPECT_TRUE(FarmerConfig{.p = 0.0}.validate().empty());
  EXPECT_TRUE(FarmerConfig{.p = 1.0}.validate().empty());
  EXPECT_NE(FarmerConfig{.p = 2.0}.validate().find("p must be in [0, 1]"),
            std::string::npos);
}

TEST(ConfigBuilder, RejectsZeroWindow) {
  EXPECT_NE(FarmerConfig{.window = 0}.validate().find("window"),
            std::string::npos);
  // Past the ring's capacity, even with an LDA step that keeps every slot
  // positive: the window would silently mine only its newest 16 files.
  const FarmerConfig big{.window = 17, .lda_delta = 0.05};
  EXPECT_NE(big.validate().find("window must be <= 16"), std::string::npos);
  const FarmerConfig full{.window = 16, .lda_delta = 0.05};
  EXPECT_TRUE(full.validate().empty());
}

TEST(ConfigBuilder, RejectsLdaDeltaDrivingWindowNegative) {
  // window 8 with delta 0.2: distance 8 would contribute 1 - 7*0.2 = -0.4.
  const FarmerConfig negative{.window = 8, .lda_delta = 0.2};
  EXPECT_NE(negative.validate().find("lda_delta"), std::string::npos);
  // The paper's own configuration (window 4, delta 0.1) is fine.
  const FarmerConfig paper{.window = 4, .lda_delta = 0.1};
  EXPECT_TRUE(paper.validate().empty());
  // Exactly reaching zero at the window edge is allowed.
  const FarmerConfig edge{.window = 5, .lda_delta = 0.25};
  EXPECT_TRUE(edge.validate().empty());
  EXPECT_FALSE(FarmerConfig{.lda_delta = -0.1}.validate().empty());
}

TEST(ConfigBuilder, RejectsZeroCapacities) {
  EXPECT_FALSE(FarmerConfig{.correlator_capacity = 0}.validate().empty());
  EXPECT_FALSE(FarmerConfig{.max_successors = 0}.validate().empty());
}

TEST(ConfigBuilder, ReportsEveryViolationAtOnce) {
  const std::string errors =
      FarmerConfig{.p = 3.0, .window = 0, .correlator_capacity = 0}
          .validate();
  EXPECT_NE(errors.find("p must be"), std::string::npos);
  EXPECT_NE(errors.find("window"), std::string::npos);
  EXPECT_NE(errors.find("correlator_capacity"), std::string::npos);
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
