// Tests for the mining API boundary: the validated config builder, the
// CorrelationMiner interface + CorrelatorView snapshots, and the
// MinerFactory registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/miner_factory.hpp"
#include "core/farmer.hpp"
#include "trace/generator.hpp"
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
            (std::vector<std::string>{"concurrent", "farmer", "sharded"}));
}

TEST(MinerFactory, ConstructsEachBuiltInWithMatchingName) {
  MicroTrace mt;
  (void)mt.file("a", "/p/a");
  for (const char* backend : {"farmer", "sharded", "concurrent"}) {
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

TEST(MinerFactory, CustomBackendsPlugIn) {
  MicroTrace mt;
  const bool fresh = register_miner(
      "custom-test-backend",
      [](const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
         const MinerOptions&) -> std::unique_ptr<CorrelationMiner> {
        return std::make_unique<Farmer>(cfg, std::move(dict));
      });
  EXPECT_TRUE(fresh);
  const auto miner = make_miner("custom-test-backend", FarmerConfig{},
                                mt.dict());
  ASSERT_NE(miner, nullptr);
  // Re-registering the same name replaces, not duplicates.
  EXPECT_FALSE(register_miner(
      "custom-test-backend",
      [](const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
         const MinerOptions&) -> std::unique_ptr<CorrelationMiner> {
        return std::make_unique<Farmer>(cfg, std::move(dict));
      }));
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
    const auto ls = serial->correlators(FileId(f));
    const auto lm = sharded->correlators(FileId(f));
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
    const auto lb = batched->correlators(FileId(f));
    const auto ls = serial->correlators(FileId(f));
    ASSERT_EQ(lb.size(), ls.size());
    for (std::size_t i = 0; i < lb.size(); ++i) {
      EXPECT_EQ(lb[i].file, ls[i].file);
      EXPECT_FLOAT_EQ(lb[i].degree, ls[i].degree);
    }
  }
}

// Differential tier: the async "concurrent" backend, once flush()ed, must
// be indistinguishable from the synchronous "sharded" backend on the same
// stream — byte-identical Correlator Lists and identical mining counters.
// Single-producer replay keeps the applied order equal to trace order, so
// the equality is exact, not statistical.
TEST(CorrelationMinerInterface, ConcurrentAfterFlushMatchesSharded) {
  const MicroTrace mt = fixed_trace();
  MinerOptions opts;
  opts.shards = 4;
  const auto sharded = make_miner("sharded", FarmerConfig{}, mt.dict(), opts);
  const auto concurrent =
      make_miner("concurrent", FarmerConfig{}, mt.dict(), opts);
  EXPECT_STREQ(concurrent->name(), "concurrent");

  for (const auto& r : mt.records()) {
    sharded->observe(r);
    concurrent->observe(r);
  }
  concurrent->flush();

  for (std::uint32_t f = 0; f < mt.dict()->files.size(); ++f) {
    const auto ls = sharded->correlators(FileId(f));
    const auto lc = concurrent->correlators(FileId(f));
    ASSERT_EQ(ls.size(), lc.size()) << "file " << f;
    for (std::size_t i = 0; i < ls.size(); ++i) {
      EXPECT_EQ(ls[i].file, lc[i].file) << "file " << f << " slot " << i;
      // Bitwise-equal degrees: identical arithmetic on identical order.
      EXPECT_EQ(ls[i].degree, lc[i].degree) << "file " << f << " slot " << i;
    }
    EXPECT_EQ(sharded->access_count(FileId(f)),
              concurrent->access_count(FileId(f)));
    EXPECT_EQ(sharded->correlation_degree(FileId(f), FileId(0)),
              concurrent->correlation_degree(FileId(f), FileId(0)));
  }
  const MinerStats ss = sharded->stats();
  const MinerStats sc = concurrent->stats();
  EXPECT_EQ(ss.requests, sc.requests);
  EXPECT_EQ(ss.pairs_evaluated, sc.pairs_evaluated);
  EXPECT_EQ(ss.pairs_accepted, sc.pairs_accepted);
  EXPECT_EQ(ss.pairs_filtered, sc.pairs_filtered);
  EXPECT_EQ(sc.pending, 0u);
  EXPECT_GE(sc.epoch, 1u);
}

// The same differential on a generated trace: thousands of records exercise
// batch splits inside the drain (multiple apply epochs) rather than the
// single-epoch fast path of a micro trace.
TEST(CorrelationMinerInterface, ConcurrentDifferentialOnGeneratedTrace) {
  const Trace t = make_paper_trace(TraceKind::kHP, 17, 0.02);
  MinerOptions opts;
  opts.shards = 4;
  const FarmerConfig cfg;
  const auto sharded = make_miner("sharded", cfg, t.dict, opts);
  const auto concurrent = make_miner("concurrent", cfg, t.dict, opts);

  // Push in small batches from one thread: applied order == trace order.
  constexpr std::size_t kChunk = 128;
  for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, t.records.size() - i);
    concurrent->observe_batch(
        std::span<const TraceRecord>(&t.records[i], n));
  }
  sharded->observe_batch(t.records);
  concurrent->flush();

  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    const auto ls = sharded->correlators(FileId(f));
    const auto lc = concurrent->correlators(FileId(f));
    ASSERT_EQ(ls.size(), lc.size()) << "file " << f;
    for (std::size_t i = 0; i < ls.size(); ++i) {
      EXPECT_EQ(ls[i].file, lc[i].file) << "file " << f << " slot " << i;
      EXPECT_EQ(ls[i].degree, lc[i].degree) << "file " << f << " slot " << i;
    }
  }
  EXPECT_EQ(sharded->stats().pairs_evaluated,
            concurrent->stats().pairs_evaluated);
}

// Multi-producer ingest: cross-thread interleaving is relaxed, so exact
// list equality is not promised — but flush() must still account for every
// record, and order-insensitive aggregates must match the sync backend.
TEST(CorrelationMinerInterface, ConcurrentMultiProducerFlushLosesNothing) {
  const Trace t = make_paper_trace(TraceKind::kHP, 23, 0.02);
  MinerOptions opts;
  opts.shards = 4;
  opts.ingest_threads = 4;
  const auto sharded = make_miner("sharded", FarmerConfig{}, t.dict, opts);
  const auto concurrent =
      make_miner("concurrent", FarmerConfig{}, t.dict, opts);
  sharded->observe_batch(t.records);

  // Partition by process (stream affinity), one producer thread each.
  const auto parts = testing::partition_by_process(t.records, 4);
  testing::replay_partitioned(*concurrent, parts, /*chunk=*/64);
  concurrent->flush();

  const MinerStats sc = concurrent->stats();
  EXPECT_EQ(sc.requests, t.records.size());
  EXPECT_EQ(sc.pending, 0u);
  // N_f is order-independent: must match the sync backend exactly.
  for (std::uint32_t f = 0; f < t.file_count(); ++f)
    EXPECT_EQ(sharded->access_count(FileId(f)),
              concurrent->access_count(FileId(f)))
        << "file " << f;
}

// Regression: a single batch larger than the backpressure bound must be
// admitted once the drain catches up — refusing it would live-lock the
// producer forever (pending_ can never shrink below an un-admitted batch).
TEST(CorrelationMinerInterface, ConcurrentAdmitsBatchLargerThanMaxPending) {
  const Trace t = make_paper_trace(TraceKind::kHP, 29, 0.01);
  ASSERT_GT(t.records.size(), 64u);
  MinerOptions opts;
  opts.ingest_threads = 1;
  opts.max_pending = 64;  // far smaller than the one batch below
  const auto miner = make_miner("concurrent", FarmerConfig{}, t.dict, opts);
  miner->observe_batch(t.records);
  miner->flush();
  EXPECT_EQ(miner->stats().requests, t.records.size());
  EXPECT_EQ(miner->stats().pending, 0u);
}

// The MinerStats field contract: synchronous backends report the async-only
// fields as explicit zeros (epoch, pending, publish counters) and an empty
// shard_epochs; the async backend fills all of them. Pinning this down keeps
// "0" meaning "not applicable" instead of "whatever the backend left there".
TEST(MinerStatsContract, SyncBackendsZeroAsyncOnlyFields) {
  const MicroTrace mt = fixed_trace();
  for (const char* backend : {"farmer", "sharded"}) {
    const auto miner = make_miner(backend, FarmerConfig{}, mt.dict());
    miner->observe_batch(mt.records());
    miner->flush();  // no-op, but the contract must hold after it too
    const MinerStats s = miner->stats();
    EXPECT_GT(s.requests, 0u) << backend;
    EXPECT_EQ(s.epoch, 0u) << backend;
    EXPECT_EQ(s.pending, 0u) << backend;
    EXPECT_EQ(s.publishes, 0u) << backend;
    EXPECT_EQ(s.files_cloned, 0u) << backend;
    EXPECT_EQ(s.bytes_shared, 0u) << backend;
    EXPECT_TRUE(s.shard_epochs.empty()) << backend;
    // Apply counters belong to the sharded batch-apply path alone:
    // single-shard backends report them as explicit zeros.
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

TEST(MinerStatsContract, ConcurrentReportsPerShardEpochs) {
  const MicroTrace mt = fixed_trace();
  MinerOptions opts;
  opts.shards = 4;
  const auto miner = make_miner("concurrent", FarmerConfig{}, mt.dict(),
                                opts);
  miner->observe_batch(mt.records());
  miner->flush();
  const MinerStats s = miner->stats();
  ASSERT_EQ(s.shard_epochs.size(), 4u);
  EXPECT_GE(s.epoch, 1u);
  // Every apply round touches only the shards its records route to, so no
  // shard can have published more often than the global round count —
  // and at least one shard must have published.
  std::uint64_t max_shard = 0;
  for (const std::uint64_t e : s.shard_epochs)
    max_shard = std::max(max_shard, e);
  EXPECT_GE(max_shard, 1u);
  EXPECT_LE(max_shard, s.epoch);
  // Publish accounting is live on the async backend: every epoch is one
  // table publication (with coalescing off by default they are identical).
  EXPECT_EQ(s.publishes, s.epoch);
}

// "concurrent" after flush() must answer exactly as "sharded" fed the same
// batches, mid-trace as well as at the end: both take the trace in
// 512-record chunks, "concurrent" is flushed after each one, and every
// seventh file's Correlator List must match entry for entry.
TEST(CorrelationMinerInterface, ConcurrentMatchesShardedAfterEveryFlush) {
  const Trace t = make_paper_trace(TraceKind::kHP, 31, 0.02);
  MinerOptions opts;
  opts.shards = 4;
  const auto concurrent = make_miner("concurrent", FarmerConfig{}, t.dict,
                                     opts);
  const auto sharded = make_miner("sharded", FarmerConfig{}, t.dict, opts);

  constexpr std::size_t kChunk = 512;
  for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, t.records.size() - i);
    const std::span<const TraceRecord> chunk(&t.records[i], n);
    concurrent->observe_batch(chunk);
    sharded->observe_batch(chunk);
    concurrent->flush();
    for (std::uint32_t f = 0; f < t.file_count(); f += 7) {
      const auto lc = concurrent->correlators(FileId(f));
      const auto ls = sharded->correlators(FileId(f));
      ASSERT_EQ(lc.size(), ls.size()) << "file " << f << " at record " << i;
      for (std::size_t k = 0; k < lc.size(); ++k) {
        EXPECT_EQ(lc[k].file, ls[k].file) << "file " << f << " slot " << k;
        EXPECT_EQ(lc[k].degree, ls[k].degree)
            << "file " << f << " slot " << k;
      }
    }
  }
}

// --------------------------------------------------------------- snapshot --

TEST(CorrelatorView, FarmerSnapshotBorrowsShardedSnapshotOwns) {
  const MicroTrace mt = fixed_trace();
  const auto serial = make_miner("farmer", FarmerConfig{}, mt.dict());
  MinerOptions opts;
  opts.shards = 4;
  const auto sharded = make_miner("sharded", FarmerConfig{}, mt.dict(), opts);
  serial->observe_batch(mt.records());
  sharded->observe_batch(mt.records());

  const CorrelatorView borrowed = serial->snapshot(FileId(0));
  ASSERT_FALSE(borrowed.empty());
  EXPECT_FALSE(borrowed.owns_storage());

  const CorrelatorView owned = sharded->snapshot(FileId(0));
  ASSERT_FALSE(owned.empty());
  EXPECT_TRUE(owned.owns_storage());
}

TEST(CorrelatorView, OwningSnapshotIsImmutableUnderFurtherIngest) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  for (int i = 0; i < 6; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const auto miner = make_miner("sharded", FarmerConfig{}, mt.dict());
  miner->observe_batch(mt.records());
  const CorrelatorView snap = miner->snapshot(a);
  ASSERT_FALSE(snap.empty());
  const FileId first = snap[0].file;
  const float degree = snap[0].degree;
  // Keep mining; the held snapshot must not change underneath the reader.
  for (const auto& r : mt.records()) miner->observe(r);
  EXPECT_EQ(snap[0].file, first);
  EXPECT_FLOAT_EQ(snap[0].degree, degree);
}

TEST(CorrelatorView, MoveTransfersOwnedStorage) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  for (int i = 0; i < 4; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const auto miner = make_miner("sharded", FarmerConfig{}, mt.dict());
  miner->observe_batch(mt.records());
  CorrelatorView snap = miner->snapshot(a);
  ASSERT_FALSE(snap.empty());
  const std::size_t n = snap.size();
  const CorrelatorView moved = std::move(snap);
  EXPECT_EQ(moved.size(), n);
  EXPECT_TRUE(moved.owns_storage());
}

}  // namespace
}  // namespace farmer
