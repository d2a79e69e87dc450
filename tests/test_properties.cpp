// Property-based suites: invariants that must hold across the whole
// configuration space, swept with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/experiment.hpp"
#include "api/miner_factory.hpp"
#include "common/rng.hpp"
#include "core/concurrent_farmer.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "prefetch/replay.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"
#include "vsm/similarity.hpp"

namespace farmer {
namespace {

const Trace& small_hp() {
  static const Trace t = make_paper_trace(TraceKind::kHP, 99, 0.05);
  return t;
}

// ------------------------------------------- FARMER config-space sweep ---

class FarmerConfigSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FarmerConfigSweep, CorrelatorInvariantsHold) {
  const auto [p, max_strength] = GetParam();
  FarmerConfig cfg;
  cfg.p = p;
  cfg.max_strength = max_strength;
  const Trace& t = small_hp();
  Farmer model(cfg, t.dict);
  for (const auto& rec : t.records) model.observe(rec);

  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    const auto& list = model.correlators(FileId(f));
    ASSERT_LE(list.size(), cfg.correlator_capacity);
    for (std::size_t i = 0; i < list.size(); ++i) {
      // Every entry passed the validity threshold at its last evaluation.
      EXPECT_GE(list[i].degree, static_cast<float>(max_strength) - 1e-4f)
          << "file " << f;
      EXPECT_NE(list[i].file, FileId(f));  // no self-correlation
      if (i > 0) {  // sorted descending
        EXPECT_GE(list[i - 1].degree, list[i].degree);
      }
    }
  }
  EXPECT_GT(model.footprint_bytes(), 0u);
}

TEST_P(FarmerConfigSweep, DegreesBounded) {
  const auto [p, max_strength] = GetParam();
  FarmerConfig cfg;
  cfg.p = p;
  cfg.max_strength = max_strength;
  const Trace& t = small_hp();
  Farmer model(cfg, t.dict);
  for (const auto& rec : t.records) model.observe(rec);
  // R = p*sim + (1-p)*F with sim <= 1 and F <= ~window; check a generous
  // upper bound and non-negativity over sampled pairs.
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const FileId a(
        static_cast<std::uint32_t>(rng.next_below(t.file_count())));
    const FileId b(
        static_cast<std::uint32_t>(rng.next_below(t.file_count())));
    const double r = model.correlation_degree(a, b);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, p + (1.0 - p) * 2.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FarmerConfigSweep,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.7, 1.0),
                       ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8)),
    [](const auto& info) {
      return "p" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 10)) +
             "_s" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

// ----------------------------------------------- replay invariant sweep --

class ReplaySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReplaySweep, AccountingIdentitiesHold) {
  const std::size_t degree = GetParam();
  const Trace& t = small_hp();
  ReplayConfig rc;
  rc.cache_capacity = 64;
  rc.prefetch_degree = degree;
  FpaPredictor fpa(FarmerConfig{}, t.dict);
  const auto r = replay_trace(t, fpa, rc);

  // Demand accounting: every record is exactly one demand access.
  EXPECT_EQ(r.cache.demand.denominator(), t.records.size());
  EXPECT_LE(r.cache.demand.numerator(), r.cache.demand.denominator());
  // Prefetch accounting: used + evicted-unused <= inserted (some may still
  // be resident and unused at the end).
  EXPECT_LE(r.cache.prefetch_used + r.cache.prefetch_evicted_unused,
            r.cache.prefetch_inserted);
  EXPECT_GE(r.hit_ratio(), 0.0);
  EXPECT_LE(r.hit_ratio(), 1.0);
  EXPECT_GE(r.prefetch_accuracy(), 0.0);
  EXPECT_LE(r.prefetch_accuracy(), 1.0);
  if (degree == 0) {
    EXPECT_EQ(r.cache.prefetch_inserted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ReplaySweep,
                         ::testing::Values(0u, 1u, 4u, 8u),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

// --------------------------------------------------- similarity algebra --

class SimilarityProperty : public ::testing::TestWithParam<PathMode> {};

TEST_P(SimilarityProperty, SymmetricBoundedReflexive) {
  const PathMode mode = GetParam();
  Interner in;
  Rng rng(11);
  const AttributeMask mask = AttributeMask::all_with_path();
  auto random_sv = [&] {
    SemanticVector sv;
    sv.user = in.intern("u" + std::to_string(rng.next_below(5)));
    sv.process = in.intern("p" + std::to_string(rng.next_below(50)));
    sv.host = in.intern("h" + std::to_string(rng.next_below(4)));
    std::string path;
    const auto depth = 1 + rng.next_below(5);
    for (std::uint64_t d = 0; d < depth; ++d)
      path += "/d" + std::to_string(rng.next_below(6));
    intern_path_components(path, in, sv.path_components);
    return sv;
  };
  for (int i = 0; i < 200; ++i) {
    const SemanticVector a = random_sv();
    const SemanticVector b = random_sv();
    const double ab = similarity(a, b, mask, mode);
    const double ba = similarity(b, a, mask, mode);
    EXPECT_DOUBLE_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(similarity(a, a, mask, mode), 1.0);
  }
}

TEST_P(SimilarityProperty, MonotoneInSharedAttributes) {
  // Adding one more matching attribute never decreases similarity when the
  // vector sizes stay equal.
  const PathMode mode = GetParam();
  Interner in;
  SemanticVector a, b;
  a.user = in.intern("u");
  b.user = in.intern("u");
  a.process = in.intern("p1");
  b.process = in.intern("p2");
  a.host = in.intern("h1");
  b.host = in.intern("h2");
  const double base = similarity(a, b, AttributeMask::all_with_path(), mode);
  b.process = a.process;  // now two of three match
  const double more = similarity(a, b, AttributeMask::all_with_path(), mode);
  EXPECT_GT(more, base);
}

INSTANTIATE_TEST_SUITE_P(Modes, SimilarityProperty,
                         ::testing::Values(PathMode::kDivided,
                                           PathMode::kIntegrated),
                         [](const auto& info) {
                           return info.param == PathMode::kDivided ? "DPA"
                                                                   : "IPA";
                         });

// ------------------------------------------------------ generator sweep --

class GeneratorSweep : public ::testing::TestWithParam<TraceKind> {};

TEST_P(GeneratorSweep, StructuralInvariants) {
  const Trace t = make_paper_trace(GetParam(), 5, 0.04);
  ASSERT_GT(t.event_count(), 0u);
  ASSERT_GT(t.file_count(), 0u);
  SimTime prev = 0;
  for (const auto& r : t.records) {
    EXPECT_GE(r.timestamp, prev);
    prev = r.timestamp;
    ASSERT_LT(r.file.value(), t.file_count());
    EXPECT_TRUE(r.user_token.valid());
    EXPECT_TRUE(r.fid_token.valid());
    EXPECT_EQ(r.path.valid(), t.has_paths);
  }
}

TEST_P(GeneratorSweep, SeedStability) {
  const Trace a = make_paper_trace(GetParam(), 77, 0.03);
  const Trace b = make_paper_trace(GetParam(), 77, 0.03);
  ASSERT_EQ(a.event_count(), b.event_count());
  for (std::size_t i = 0; i < a.records.size(); i += 97)
    EXPECT_EQ(a.records[i].file, b.records[i].file) << i;
}

TEST_P(GeneratorSweep, MinableStructureExists) {
  // Every profile must contain recurrence FARMER can exploit: mining the
  // trace yields a non-trivial number of valid correlations.
  const Trace t = make_paper_trace(GetParam(), 5, 0.06);
  Farmer model(FarmerConfig{}, t.dict);
  for (const auto& rec : t.records) model.observe(rec);
  std::size_t entries = 0;
  for (std::uint32_t f = 0; f < t.file_count(); ++f)
    entries += model.correlators(FileId(f)).size();
  EXPECT_GT(entries, t.file_count() / 20);
}

INSTANTIATE_TEST_SUITE_P(AllTraces, GeneratorSweep,
                         ::testing::Values(TraceKind::kLLNL, TraceKind::kINS,
                                           TraceKind::kRES, TraceKind::kHP),
                         [](const auto& info) {
                           return std::string(trace_kind_name(info.param));
                         });

// ------------------------------------- concurrent ingest stress/property --

// Readers hammer epoch snapshots while producers ingest: every snapshot
// must be internally consistent — sorted by descending degree, above the
// validity threshold, self-free, capacity-capped (a torn degree or a
// mid-merge read would violate one of these with high probability) — and
// the epoch stamps each reader observes must be monotone non-decreasing.
// This is the test the ThreadSanitizer CI job runs race detection on.
TEST(ConcurrentMinerStress, SnapshotsConsistentWhileProducersIngest) {
  const Trace& t = small_hp();
  const FarmerConfig cfg;
  constexpr std::size_t kProducers = 4;
  ConcurrentFarmer miner(cfg, t.dict, /*shards=*/4,
                         /*ingest_queues=*/kProducers);

  const auto parts = testing::partition_by_process(t.records, kProducers);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&, rdr] {
      Rng rng(static_cast<std::uint64_t>(100 + rdr));
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const FileId f(
            static_cast<std::uint32_t>(rng.next_below(t.file_count())));
        const EpochSnapshot snap = miner.epoch_snapshot(f);
        EXPECT_GE(snap.epoch, last_epoch) << "epoch went backwards";
        last_epoch = snap.epoch;
        ASSERT_LE(snap.view.size(), cfg.correlator_capacity);
        for (std::size_t i = 0; i < snap.view.size(); ++i) {
          EXPECT_NE(snap.view[i].file, f) << "self-correlation";
          EXPECT_GE(snap.view[i].degree,
                    static_cast<float>(cfg.max_strength) - 1e-4f)
              << "torn/filtered degree surfaced";
          if (i > 0) {
            EXPECT_GE(snap.view[i - 1].degree, snap.view[i].degree)
                << "snapshot not sorted";
          }
        }
      }
    });
  }

  // Blocks until every producer thread has pushed its partition; the
  // readers above keep hammering snapshots the whole time.
  testing::replay_partitioned(miner, parts, /*chunk=*/32);
  miner.flush();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  const MinerStats s = miner.stats();
  EXPECT_EQ(s.requests, t.records.size());
  EXPECT_EQ(s.pending, 0u);
  EXPECT_GE(miner.epoch(), 1u);
  EXPECT_EQ(s.epoch, miner.epoch());
}

// Publish coalescing under racing producers and readers: with a short
// record interval and a tight staleness deadline the drain keeps switching
// between coalesced and deadline-forced publishes while readers validate
// every snapshot invariant. COW sharing means each published table
// structurally shares per-file blocks with its predecessors — a torn or
// in-place-mutated shared block would surface here (and under the TSan CI
// tier, which runs this via the ConcurrentMinerStress.* filter).
TEST(ConcurrentMinerStress, CoalescedPublishesStayConsistent) {
  const Trace& t = small_hp();
  const FarmerConfig cfg;
  constexpr std::size_t kProducers = 4;
  ConcurrentFarmer miner(cfg, t.dict, /*shards=*/4,
                         /*ingest_queues=*/kProducers,
                         ConcurrentFarmer::kDefaultMaxPending,
                         /*publish_interval_records=*/512,
                         /*publish_max_delay_ms=*/1);

  const auto parts = testing::partition_by_process(t.records, kProducers);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&, rdr] {
      Rng rng(static_cast<std::uint64_t>(700 + rdr));
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const FileId f(
            static_cast<std::uint32_t>(rng.next_below(t.file_count())));
        const EpochSnapshot snap = miner.epoch_snapshot(f);
        EXPECT_GE(snap.epoch, last_epoch) << "epoch went backwards";
        last_epoch = snap.epoch;
        ASSERT_LE(snap.view.size(), cfg.correlator_capacity);
        for (std::size_t i = 0; i < snap.view.size(); ++i) {
          EXPECT_NE(snap.view[i].file, f) << "self-correlation";
          EXPECT_GE(snap.view[i].degree,
                    static_cast<float>(cfg.max_strength) - 1e-4f)
              << "torn/filtered degree surfaced";
          if (i > 0) {
            EXPECT_GE(snap.view[i - 1].degree, snap.view[i].degree)
                << "snapshot not sorted";
          }
        }
      }
    });
  }

  testing::replay_partitioned(miner, parts, /*chunk=*/32);
  miner.flush();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  const MinerStats s = miner.stats();
  EXPECT_EQ(s.requests, t.records.size());
  EXPECT_EQ(s.pending, 0u);
  EXPECT_GE(s.publishes, 1u);
  EXPECT_EQ(s.publishes, s.epoch);
}

// An owning snapshot cut before further ingest must never change, and
// flush() must be an effective barrier even when called repeatedly.
TEST(ConcurrentMinerStress, SnapshotsAreImmutableAndFlushIsIdempotent) {
  const Trace& t = small_hp();
  ConcurrentFarmer miner(FarmerConfig{}, t.dict, /*shards=*/2,
                         /*ingest_queues=*/2);
  const std::size_t half = t.records.size() / 2;
  miner.observe_batch(
      std::span<const TraceRecord>(t.records.data(), half));
  miner.flush();
  const std::uint64_t epoch_after_half = miner.epoch();

  // Find a file with a non-empty list and pin its snapshot.
  FileId pinned;
  EpochSnapshot snap;
  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    snap = miner.epoch_snapshot(FileId(f));
    if (!snap.view.empty()) {
      pinned = FileId(f);
      break;
    }
  }
  ASSERT_TRUE(pinned.valid()) << "no correlations mined in half a trace";
  ASSERT_TRUE(snap.view.owns_storage());
  const FileId first = snap.view[0].file;
  const float degree = snap.view[0].degree;

  miner.observe_batch(std::span<const TraceRecord>(
      t.records.data() + half, t.records.size() - half));
  miner.flush();
  miner.flush();  // idempotent: nothing pending, returns immediately

  EXPECT_EQ(snap.view[0].file, first);
  EXPECT_EQ(snap.view[0].degree, degree);
  EXPECT_GE(miner.epoch(), epoch_after_half);
  EXPECT_EQ(miner.stats().requests, t.records.size());
  EXPECT_EQ(miner.stats().pending, 0u);
}

// ------------------------------------------- parallel-apply stress --

// The shard-disjoint worker pool under repetition: a 4-lane ShardedFarmer
// re-runs the parallel apply across many batches while a serial twin
// ingests the same stream record by record. TSan (CI runs this suite via
// the ParallelApplyStress.* filter with --gtest_repeat) races the pool's
// generation handshake, work-stealing counter and completion accounting;
// the bitwise compare catches any cross-shard write the race detector
// misses. Sync backends permit no concurrent queries, so the stress here
// is dispatch-side, not reader-side.
TEST(ParallelApplyStress, ShardedWorkerLanesRepeatedBatchesStayIdentical) {
  const Trace& t = small_hp();
  const FarmerConfig cfg;
  ShardedFarmer serial(cfg, t.dict, /*shards=*/4, /*apply_threads=*/1);
  ShardedFarmer lanes(cfg, t.dict, /*shards=*/4, /*apply_threads=*/4);
  EXPECT_EQ(lanes.apply_thread_count(), 4u);

  for (const TraceRecord& r : t.records) serial.observe(r);
  // Small chunks maximize pool dispatches (one run() per batch).
  constexpr std::size_t kChunk = 16;
  for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, t.records.size() - i);
    lanes.observe_batch(std::span<const TraceRecord>(&t.records[i], n));
  }

  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    const FileId id(f);
    ASSERT_EQ(serial.access_count(id), lanes.access_count(id))
        << "file " << f;
    const auto a = serial.correlators(id);
    const auto b = lanes.correlators(id);
    ASSERT_EQ(a.size(), b.size()) << "file " << f;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].file, b[i].file) << "file " << f << " slot " << i;
      EXPECT_EQ(a[i].degree, b[i].degree) << "file " << f << " slot " << i;
    }
  }
  EXPECT_EQ(lanes.stats().apply_parallel_records, t.records.size());
}

// The full async stack with the pool underneath: producers enqueue,
// the drain hands batches to the 4-lane parallel apply, readers validate
// snapshot invariants throughout — three thread populations racing the
// RCU publish path AND the worker pool at once.
TEST(ParallelApplyStress, ConcurrentDrainWithWorkerLanesStaysConsistent) {
  const Trace& t = small_hp();
  const FarmerConfig cfg;
  constexpr std::size_t kProducers = 4;
  ConcurrentFarmer miner(cfg, t.dict, /*shards=*/4,
                         /*ingest_queues=*/kProducers,
                         ConcurrentFarmer::kDefaultMaxPending,
                         /*publish_interval_records=*/0,
                         /*publish_max_delay_ms=*/0,
                         /*persister=*/nullptr,
                         /*apply_threads=*/4);

  const auto parts = testing::partition_by_process(t.records, kProducers);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&, rdr] {
      Rng rng(static_cast<std::uint64_t>(2100 + rdr));
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const FileId f(
            static_cast<std::uint32_t>(rng.next_below(t.file_count())));
        const EpochSnapshot snap = miner.epoch_snapshot(f);
        EXPECT_GE(snap.epoch, last_epoch) << "epoch went backwards";
        last_epoch = snap.epoch;
        ASSERT_LE(snap.view.size(), cfg.correlator_capacity);
        for (std::size_t i = 0; i < snap.view.size(); ++i) {
          EXPECT_NE(snap.view[i].file, f) << "self-correlation";
          if (i > 0) {
            EXPECT_GE(snap.view[i - 1].degree, snap.view[i].degree)
                << "snapshot not sorted";
          }
        }
      }
    });
  }

  testing::replay_partitioned(miner, parts, /*chunk=*/32);
  miner.flush();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  const MinerStats s = miner.stats();
  EXPECT_EQ(s.requests, t.records.size());
  EXPECT_EQ(s.pending, 0u);
  // The drain really applied through the pool: multi-shard batches were
  // counted by the inner sharded miner's parallel path.
  EXPECT_GE(s.apply_batches, 1u);
}

// ------------------------------------------------------- LDA properties --

TEST(LdaProperty, WeightsDecreaseWithDistance) {
  for (double delta : {0.05, 0.1, 0.2}) {
    for (std::size_t d = 1; d < 12; ++d) {
      EXPECT_GE(AccessWindow::lda_weight(d, delta),
                AccessWindow::lda_weight(d + 1, delta));
      EXPECT_GE(AccessWindow::lda_weight(d, delta), 0.0);
      EXPECT_LE(AccessWindow::lda_weight(d, delta), 1.0);
    }
  }
}

TEST(LdaProperty, ZeroDeltaIsUniform) {
  for (std::size_t d = 1; d < 16; ++d)
    EXPECT_DOUBLE_EQ(AccessWindow::lda_weight(d, 0.0), 1.0);
}

}  // namespace
}  // namespace farmer
