// Copy-on-write snapshot publication invariants: the CowBlockStore
// primitive, Farmer/ShardedFarmer COW exports (old snapshots keep old
// answers, untouched blocks stay pointer-identical), the running footprint
// counters (checked against the full walk), Farmer::observe_batch, and the
// concurrent backend's publish coalescing (differential byte-identity,
// flush barrier, publish stats).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/miner_factory.hpp"
#include "common/cow_store.hpp"
#include "common/rng.hpp"
#include "core/concurrent_farmer.hpp"
#include "core/farmer.hpp"
#include "core/sharded_farmer.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

// ----------------------------------------------------------- CowBlockStore --

struct Payload {
  int x = 0;
  std::vector<int> heap;

  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return heap.capacity() * sizeof(int);
  }
};

TEST(CowBlockStore, FindOnEmptyAndOutOfRange) {
  CowBlockStore<Payload, 4> store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(0), nullptr);
  store.grow_to(10);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.find(3), nullptr);   // grown but never populated
  EXPECT_EQ(store.find(99), nullptr);  // out of range
}

TEST(CowBlockStore, MutateCreatesAndFindsAcrossPages) {
  CowBlockStore<Payload, 4> store;  // tiny pages: index 9 is page 2
  store.mutate(9).x = 42;
  store.mutate(0).x = 7;
  ASSERT_NE(store.find(9), nullptr);
  EXPECT_EQ(store.find(9)->x, 42);
  EXPECT_EQ(store.find(0)->x, 7);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.stats().blocks, 2u);
  EXPECT_EQ(store.stats().creates, 2u);
  EXPECT_EQ(store.stats().clones, 0u);
}

TEST(CowBlockStore, ShareIsPointerIdenticalUntilWrite) {
  CowBlockStore<Payload, 4> store;
  store.mutate(1).x = 10;
  store.mutate(5).x = 50;
  const auto snap = store.share();
  // Nothing copied: both stores address the very same blocks.
  EXPECT_EQ(store.block_identity(1), snap.block_identity(1));
  EXPECT_EQ(store.block_identity(5), snap.block_identity(5));
  EXPECT_EQ(snap.find(1)->x, 10);
  EXPECT_EQ(store.stats().clones, 0u);
}

TEST(CowBlockStore, WriteAfterShareClonesOnlyTheTouchedBlock) {
  CowBlockStore<Payload, 4> store;
  store.mutate(1).x = 10;
  store.mutate(2).x = 20;
  store.mutate(5).x = 50;  // second page
  const auto snap = store.share();
  store.mutate(1).x = 11;
  // The touched block was cloned; the snapshot still answers the old value.
  EXPECT_NE(store.block_identity(1), snap.block_identity(1));
  EXPECT_EQ(snap.find(1)->x, 10);
  EXPECT_EQ(store.find(1)->x, 11);
  // Same-page neighbor and other-page block stay shared.
  EXPECT_EQ(store.block_identity(2), snap.block_identity(2));
  EXPECT_EQ(store.block_identity(5), snap.block_identity(5));
  EXPECT_EQ(store.stats().clones, 1u);
  // Further writes to the same block within the epoch do not clone again.
  store.mutate(1).x = 12;
  EXPECT_EQ(store.stats().clones, 1u);
}

TEST(CowBlockStore, EveryShareOpensANewCloneEpoch) {
  CowBlockStore<Payload, 4> store;
  store.mutate(3).x = 1;
  const auto s1 = store.share();
  store.mutate(3).x = 2;  // clone #1
  const auto s2 = store.share();
  store.mutate(3).x = 3;  // clone #2: s2 shares the block written at epoch 1
  EXPECT_EQ(store.stats().clones, 2u);
  EXPECT_EQ(s1.find(3)->x, 1);
  EXPECT_EQ(s2.find(3)->x, 2);
  EXPECT_EQ(store.find(3)->x, 3);
}

TEST(CowBlockStore, CreatingNewBlocksNeverDisturbsTheSnapshot) {
  CowBlockStore<Payload, 4> store;
  store.mutate(0).x = 1;
  const auto snap = store.share();
  store.mutate(1).x = 2;  // same page as 0, absent in the snapshot
  EXPECT_EQ(snap.find(1), nullptr);
  EXPECT_EQ(store.find(1)->x, 2);
  EXPECT_EQ(store.block_identity(0), snap.block_identity(0));
}

TEST(CowBlockStore, CopyIsDeepAndDetached) {
  CowBlockStore<Payload, 4> store;
  store.mutate(2).x = 5;
  store.mutate(2).heap = {1, 2, 3};
  const CowBlockStore<Payload, 4> copy(store);
  EXPECT_NE(copy.block_identity(2), store.block_identity(2));
  EXPECT_EQ(copy.find(2)->x, 5);
  EXPECT_EQ(copy.find(2)->heap, (std::vector<int>{1, 2, 3}));
  store.mutate(2).x = 6;
  EXPECT_EQ(copy.find(2)->x, 5);
  // A deep copy starts a fresh accounting baseline.
  EXPECT_EQ(copy.stats().blocks, 1u);
  EXPECT_EQ(copy.stats().clones, 0u);
}

TEST(CowBlockStore, FootprintCountsBlocksAndHeap) {
  CowBlockStore<Payload, 4> store;
  const std::size_t empty = store.footprint_bytes();
  Payload& p = store.mutate(0);
  const std::size_t before = p.heap_bytes();
  p.heap.assign(100, 7);
  store.note_heap_change(before, p.heap_bytes());
  EXPECT_GT(store.footprint_bytes(), empty + 100 * sizeof(int));
  EXPECT_EQ(store.footprint_bytes(), store.recount_footprint_bytes());
}

// The running counters against the full walk after every operation the
// store supports: create, reported heap growth and shrink, share then
// clone (a std::vector copy allocates its size, not the source's
// capacity, so clones re-measure), deep copy, copy-assign and move.
TEST(CowBlockStore, CountersMatchWalkUnderRandomOps) {
  using Store = CowBlockStore<Payload, 4>;
  Rng rng(2024);
  std::vector<Store> stores(1);  // [0] is the live side
  const auto other = [&] {
    return 1 + static_cast<std::size_t>(rng.next_below(stores.size() - 1));
  };
  for (int step = 0; step < 3000; ++step) {
    Store& live = stores.front();
    const std::uint64_t op = rng.next_below(8);
    if (op <= 1) {
      live.mutate(static_cast<std::size_t>(rng.next_below(48))).x = step;
    } else if (op <= 3) {
      Payload& p = live.mutate(static_cast<std::size_t>(rng.next_below(48)));
      const std::size_t before = p.heap_bytes();
      if (rng.next_below(4) == 0) {
        p.heap.clear();
        p.heap.shrink_to_fit();
      } else {
        p.heap.resize(p.heap.size() + 1 + rng.next_below(40), step);
      }
      live.note_heap_change(before, p.heap_bytes());
    } else if (op == 4) {
      stores.push_back(live.share());
    } else if (op == 5) {
      stores.push_back(Store(live));
    } else if (op == 6 && stores.size() > 1) {
      stores[other()] = stores.front();
    } else if (stores.size() > 1) {
      const std::size_t k = other();
      Store moved(std::move(stores[k]));
      ASSERT_EQ(stores[k].footprint_bytes(),
                stores[k].recount_footprint_bytes())
          << "moved-from, step " << step;
      stores[k] = std::move(moved);
    }
    if (stores.size() > 8)
      stores.erase(stores.begin() + static_cast<std::ptrdiff_t>(other()));
    for (std::size_t k = 0; k < stores.size(); ++k)
      ASSERT_EQ(stores[k].footprint_bytes(),
                stores[k].recount_footprint_bytes())
          << "store " << k << ", step " << step;
  }
  EXPECT_GT(stores.front().stats().clones, 0u);
}

// ------------------------------------------------- Farmer COW snapshots --

MicroTrace correlated_trace() {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId b = mt.file("b", "/home/u0/proj/b");
  const FileId c = mt.file("c", "/home/u0/proj/c");
  const FileId quiet = mt.file("quiet", "/var/quiet/q");
  // `quiet` is only accessed up front: by the end of the trace it has long
  // left the look-ahead window, so later a/b/c ingest never touches its
  // blocks — the structurally-shared bystander of the COW tests.
  for (int i = 0; i < 4; ++i) mt.access(quiet, "u0", "pidA");
  for (int i = 0; i < 8; ++i) {
    mt.access(a, "u0", "pidA");
    mt.access(b, "u0", "pidA");
    mt.access(c, "u0", "pidA");
  }
  return mt;
}

TEST(FarmerCowSnapshot, OldSnapshotKeepsOldAnswersForLaterTouchedFiles) {
  const MicroTrace mt = correlated_trace();
  Farmer live(FarmerConfig{}, mt.dict());
  live.observe_batch(mt.records());

  const FileId a(0);
  const Farmer snap(CowShare{}, live);
  const std::vector<Correlator> before(snap.correlator_list(a).begin(),
                                       snap.correlator_list(a).end());
  const std::uint64_t n_before = snap.access_count(a);
  ASSERT_FALSE(before.empty());

  // Hammer file a (and its window neighbors): degrees and N_a move.
  for (int i = 0; i < 16; ++i) live.observe_batch(mt.records());
  ASSERT_GT(live.access_count(a), n_before);

  EXPECT_EQ(snap.access_count(a), n_before);
  const auto& after = snap.correlator_list(a);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].file, before[i].file);
    EXPECT_EQ(after[i].degree, before[i].degree);  // bitwise: untouched
  }
}

TEST(FarmerCowSnapshot, UntouchedBlocksArePointerIdenticalAcrossPublishes) {
  const MicroTrace mt = correlated_trace();
  Farmer live(FarmerConfig{}, mt.dict());
  live.observe_batch(mt.records());

  const FileId a(0), quiet(3);
  const Farmer snap1(CowShare{}, live);
  // Touch only file a: an a-only stream keeps every other block clean.
  std::vector<TraceRecord> a_only;
  for (const TraceRecord& r : mt.records())
    if (r.file == a) a_only.push_back(r);
  ASSERT_FALSE(a_only.empty());
  live.observe_batch(a_only);
  const Farmer snap2(CowShare{}, live);

  // The quiet file's block (node and signature) is the very same heap
  // object in both snapshots; the touched file was cloned.
  EXPECT_NE(snap1.graph().node_identity(quiet), nullptr);
  EXPECT_EQ(snap1.graph().node_identity(quiet),
            snap2.graph().node_identity(quiet));
  EXPECT_NE(snap1.graph().node_identity(a), snap2.graph().node_identity(a));
  // And pointer identity is visible at the list level too.
  EXPECT_EQ(&snap1.correlator_list(quiet), &snap2.correlator_list(quiet));
}

TEST(FarmerCowSnapshot, ShareAndDeepCopyAnswerIdentically) {
  const MicroTrace mt = correlated_trace();
  Farmer live(FarmerConfig{}, mt.dict());
  live.observe_batch(mt.records());

  const Farmer deep(live);
  const Farmer shared(CowShare{}, live);
  for (std::uint32_t f = 0; f < mt.dict()->files.size(); ++f) {
    const auto& ld = deep.correlator_list(FileId(f));
    const auto& ls = shared.correlator_list(FileId(f));
    ASSERT_EQ(ld.size(), ls.size()) << "file " << f;
    for (std::size_t i = 0; i < ld.size(); ++i) {
      EXPECT_EQ(ld[i].file, ls[i].file);
      EXPECT_EQ(ld[i].degree, ls[i].degree);
    }
    EXPECT_EQ(deep.access_count(FileId(f)), shared.access_count(FileId(f)));
    EXPECT_EQ(deep.correlation_degree(FileId(f), FileId(0)),
              shared.correlation_degree(FileId(f), FileId(0)));
    EXPECT_EQ(deep.semantic_similarity(FileId(f), FileId(0)),
              shared.semantic_similarity(FileId(f), FileId(0)));
  }
  EXPECT_EQ(deep.stats().requests, shared.stats().requests);
  EXPECT_EQ(deep.stats().pairs_evaluated, shared.stats().pairs_evaluated);
}

TEST(FarmerCowSnapshot, DeepCopyDetachesFromLiveMutation) {
  const MicroTrace mt = correlated_trace();
  Farmer live(FarmerConfig{}, mt.dict());
  live.observe_batch(mt.records());
  const FileId a(0);
  const Farmer deep(live);
  const std::uint64_t n = deep.access_count(a);
  live.observe_batch(mt.records());
  EXPECT_EQ(deep.access_count(a), n);
  // Deep copies share nothing, by identity.
  EXPECT_NE(deep.graph().node_identity(a), live.graph().node_identity(a));
}

TEST(FarmerCowSnapshot, ShardedExportSharesUntouchedBlocks) {
  const MicroTrace mt = correlated_trace();
  ShardedFarmer sharded(FarmerConfig{}, mt.dict(), /*shards=*/1);
  sharded.observe_batch(mt.records());
  const auto snap1 = sharded.export_shard_snapshot(0);
  const auto snap2 = sharded.export_shard_snapshot(0);
  // No ingest between exports: every block is shared.
  const FileId a(0);
  EXPECT_EQ(snap1->graph().node_identity(a),
            snap2->graph().node_identity(a));
  // Snapshots answer like the live shard.
  const auto live_list = sharded.correlators(a);
  const auto& snap_list = snap1->correlator_list(a);
  ASSERT_EQ(live_list.size(), snap_list.size());
  for (std::size_t i = 0; i < live_list.size(); ++i)
    EXPECT_EQ(live_list[i].degree, snap_list[i].degree);
}

// ------------------------------------------------- footprint counters --

TEST(FarmerFootprint, StableBetweenIngests) {
  const MicroTrace mt = correlated_trace();
  Farmer model(FarmerConfig{}, mt.dict());
  model.observe_batch(mt.records());
  const std::size_t f1 = model.footprint_bytes();
  EXPECT_GT(f1, 0u);
  EXPECT_EQ(model.footprint_bytes(), f1);  // no ingest, no change
  EXPECT_EQ(f1, model.recount_footprint_bytes());
  // New files + new correlations: the footprint must move after ingest.
  MicroTrace grown = correlated_trace();
  for (int i = 0; i < 64; ++i)
    grown.access(grown.file("extra" + std::to_string(i),
                            "/home/u0/extra/f" + std::to_string(i)));
  Farmer model2(FarmerConfig{}, grown.dict());
  model2.observe_batch(grown.records());
  const std::size_t g1 = model2.footprint_bytes();
  EXPECT_GT(g1, f1);
}

TEST(FarmerFootprint, InvalidatedByObserve) {
  MicroTrace mt = correlated_trace();
  Farmer model(FarmerConfig{}, mt.dict());
  model.observe_batch(mt.records());
  const std::size_t before = model.footprint_bytes();
  // A record for a brand-new file must be reflected: counters that missed
  // its new blocks would still report the smaller footprint.
  const std::size_t first_new = mt.records().size();
  for (int i = 0; i < 8; ++i)
    mt.access(mt.file("fresh" + std::to_string(i),
                      "/home/u0/fresh/f" + std::to_string(i)));
  model.observe_batch(std::span<const TraceRecord>(
      mt.records().data() + first_new, mt.records().size() - first_new));
  EXPECT_GT(model.footprint_bytes(), before);
}

TEST(FarmerFootprint, SnapshotFootprintIsStable) {
  const MicroTrace mt = correlated_trace();
  Farmer live(FarmerConfig{}, mt.dict());
  live.observe_batch(mt.records());
  const Farmer snap(CowShare{}, live);
  const std::size_t s1 = snap.footprint_bytes();
  live.observe_batch(mt.records());  // live moves on
  EXPECT_EQ(snap.footprint_bytes(), s1);
}

// Counter == walk on real mining state. Farmer's stores change a block's
// heap only where a SmallVector can grow — successor push, Correlator-List
// upsert, the semantic-state rebuild, the restore seams — so each of those
// sites reports it; the walk catches any that does not. The roomier config
// grows successor sets past 32, where a clone's exact-size copy allocates
// less than its source.
FarmerConfig roomy_config() {
  FarmerConfig cfg;
  cfg.max_successors = 40;
  cfg.correlator_capacity = 12;
  return cfg;
}

/// Paths deeper than a SmallVector's inline capacity, so the semantic
/// state's vectors and signatures own heap (no paper-trace path does).
Trace deep_path_trace() {
  MicroTrace mt;
  std::vector<FileId> files;
  for (int i = 0; i < 24; ++i)
    files.push_back(mt.file("deep" + std::to_string(i),
                            "/d0/d1/d2/d3/d4/d5/d6/d7/d8/" +
                                std::to_string(i % 5) + "/f" +
                                std::to_string(i)));
  Rng rng(7);
  for (int k = 0; k < 1500; ++k)
    mt.access(files[rng.next_below(files.size())],
              "u" + std::to_string(rng.next_below(3)),
              "pid" + std::to_string(rng.next_below(4)));
  return mt.build("deep");
}

TEST(FarmerFootprint, CountersMatchWalkAcrossSharesCopiesAndRestore) {
  std::vector<Trace> traces;
  for (const TraceKind kind : {TraceKind::kLLNL, TraceKind::kINS,
                               TraceKind::kRES, TraceKind::kHP})
    traces.push_back(make_paper_trace(kind, 53, 0.02));
  traces.push_back(deep_path_trace());
  for (const FarmerConfig& cfg : {FarmerConfig{}, roomy_config()}) {
    for (const Trace& t : traces) {
      Farmer live(cfg, t.dict);
      std::vector<std::unique_ptr<const Farmer>> snaps;
      constexpr std::size_t kChunk = 256;
      for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, t.records.size() - i);
        live.observe_batch(std::span<const TraceRecord>(&t.records[i], n));
        ASSERT_EQ(live.footprint_bytes(), live.recount_footprint_bytes())
            << t.name << " after record " << i + n;
        if ((i / kChunk) % 4 == 0)
          snaps.push_back(std::make_unique<const Farmer>(CowShare{}, live));
      }
      EXPECT_GT(live.cow_clones(), 0u) << t.name;
      for (const auto& snap : snaps)
        EXPECT_EQ(snap->footprint_bytes(), snap->recount_footprint_bytes())
            << t.name;

      const Farmer deep(live);
      EXPECT_EQ(deep.footprint_bytes(), deep.recount_footprint_bytes())
          << t.name;

      const std::string dir =
          ::testing::TempDir() + "footprint_counters_" + t.name;
      std::filesystem::remove_all(dir);
      live.save(dir);
      Farmer restored(cfg, t.dict);
      restored.load(dir);
      EXPECT_EQ(restored.footprint_bytes(),
                restored.recount_footprint_bytes())
          << t.name;
      // Keep mining on the restored model: its exact-size restored lists
      // grow again through the reporting sites.
      restored.observe_batch(t.records);
      EXPECT_EQ(restored.footprint_bytes(),
                restored.recount_footprint_bytes())
          << t.name;
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(FarmerFootprint, ShardedCountersMatchWalkWithExportsAndRestore) {
  const Trace t = make_paper_trace(TraceKind::kHP, 59, 0.02);
  const FarmerConfig cfg = roomy_config();
  ShardedFarmer sharded(cfg, t.dict, /*shards=*/4, /*apply_threads=*/1);
  std::vector<std::shared_ptr<const Farmer>> exports;
  constexpr std::size_t kChunk = 200;
  for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, t.records.size() - i);
    sharded.observe_batch(std::span<const TraceRecord>(&t.records[i], n));
    exports.push_back(sharded.export_shard_snapshot((i / kChunk) % 4));
  }
  std::size_t walked = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    EXPECT_EQ(sharded.shard(s).footprint_bytes(),
              sharded.shard(s).recount_footprint_bytes())
        << "shard " << s;
    walked += sharded.shard(s).recount_footprint_bytes();
  }
  EXPECT_EQ(sharded.footprint_bytes(), sizeof(ShardedFarmer) + walked);
  for (const auto& snap : exports)
    EXPECT_EQ(snap->footprint_bytes(), snap->recount_footprint_bytes());

  const std::string dir = ::testing::TempDir() + "footprint_counters_sharded";
  std::filesystem::remove_all(dir);
  sharded.save(dir);
  ShardedFarmer restored(cfg, t.dict, /*shards=*/4, /*apply_threads=*/1);
  restored.load(dir);
  for (std::size_t s = 0; s < restored.shard_count(); ++s)
    EXPECT_EQ(restored.shard(s).footprint_bytes(),
              restored.shard(s).recount_footprint_bytes())
        << "restored shard " << s;
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- Farmer::observe_batch --

TEST(FarmerObserveBatch, ByteIdenticalToSerialObserve) {
  const Trace t = make_paper_trace(TraceKind::kHP, 41, 0.02);
  Farmer serial(FarmerConfig{}, t.dict);
  Farmer batched(FarmerConfig{}, t.dict);
  for (const TraceRecord& r : t.records) serial.observe(r);
  batched.observe_batch(t.records);
  EXPECT_EQ(serial.stats().requests, batched.stats().requests);
  EXPECT_EQ(serial.stats().pairs_evaluated, batched.stats().pairs_evaluated);
  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    const auto& ls = serial.correlator_list(FileId(f));
    const auto& lb = batched.correlator_list(FileId(f));
    ASSERT_EQ(ls.size(), lb.size()) << "file " << f;
    for (std::size_t i = 0; i < ls.size(); ++i) {
      EXPECT_EQ(ls[i].file, lb[i].file);
      EXPECT_EQ(ls[i].degree, lb[i].degree);
    }
    EXPECT_EQ(serial.access_count(FileId(f)), batched.access_count(FileId(f)));
  }
}

TEST(FarmerObserveBatch, EmptyBatchIsANoOp) {
  const MicroTrace mt = correlated_trace();
  Farmer model(FarmerConfig{}, mt.dict());
  model.observe_batch(mt.records());
  const std::uint64_t requests = model.stats().requests;
  const std::size_t footprint = model.footprint_bytes();
  model.observe_batch(std::span<const TraceRecord>{});
  EXPECT_EQ(model.stats().requests, requests);
  EXPECT_EQ(model.footprint_bytes(), footprint);
}

// --------------------------------------------------- publish coalescing --

TEST(PublishCoalescing, DifferentialByteIdentityStillHolds) {
  const Trace t = make_paper_trace(TraceKind::kHP, 43, 0.02);
  MinerOptions opts;
  opts.shards = 4;
  const auto sharded = make_miner("sharded", FarmerConfig{}, t.dict, opts);
  MinerOptions coalesced = opts;
  // Interval and deadline far out of reach: only flush() can trigger the
  // publishes this test observes.
  coalesced.publish_interval_records = 1 << 20;
  coalesced.publish_max_delay_ms = 10000;
  const auto concurrent =
      make_miner("concurrent", FarmerConfig{}, t.dict, coalesced);

  constexpr std::size_t kChunk = 64;
  for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, t.records.size() - i);
    concurrent->observe_batch(std::span<const TraceRecord>(&t.records[i], n));
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
  const MinerStats sc = concurrent->stats();
  EXPECT_EQ(sc.requests, t.records.size());
  EXPECT_EQ(sc.pending, 0u);
  EXPECT_EQ(sc.publishes, sc.epoch);
  EXPECT_GE(sc.publishes, 1u);
}

TEST(PublishCoalescing, FlushIsAStrictBarrierDespiteHugeIntervals) {
  // With an effectively infinite interval and deadline, the only publish
  // triggers left are the dry-queue sweep and flush(); if either were
  // broken this test would hang rather than fail.
  const MicroTrace mt = correlated_trace();
  ConcurrentFarmer miner(FarmerConfig{}, mt.dict(), /*shards=*/2,
                         /*ingest_queues=*/1,
                         ConcurrentFarmer::kDefaultMaxPending,
                         /*publish_interval_records=*/1u << 30,
                         /*publish_max_delay_ms=*/60000);
  miner.observe_batch(mt.records());
  miner.flush();
  EXPECT_EQ(miner.stats().requests, mt.records().size());
  EXPECT_EQ(miner.stats().pending, 0u);
  EXPECT_GE(miner.epoch(), 1u);
  // Everything accepted is queryable.
  EXPECT_GT(miner.access_count(FileId(0)), 0u);
}

TEST(PublishCoalescing, FlushCompletesWhileIngestNeverPauses) {
  // Interval and deadline far out of reach while a producer keeps the
  // queues busy: a waiting flush() must still be released promptly (the
  // drain publishes per apply round for waiters) instead of stalling
  // until the staleness deadline.
  const Trace t = make_paper_trace(TraceKind::kHP, 47, 0.02);
  ConcurrentFarmer miner(FarmerConfig{}, t.dict, /*shards=*/2,
                         /*ingest_queues=*/2,
                         ConcurrentFarmer::kDefaultMaxPending,
                         /*publish_interval_records=*/1u << 30,
                         /*publish_max_delay_ms=*/60000);
  // A fixed workload (not a stop-flag loop): on a single core the producer
  // might otherwise never be scheduled before the flushes return, leaving
  // nothing ingested and the assertions vacuous.
  std::uint64_t produced = 0;
  std::thread producer([&] {
    std::size_t i = 0;
    for (int round = 0; round < 64; ++round) {
      const std::size_t n = std::min<std::size_t>(64, t.records.size() - i);
      miner.observe_batch(std::span<const TraceRecord>(&t.records[i], n));
      produced += n;
      i = (i + n) % t.records.size();
    }
  });
  for (int k = 0; k < 3; ++k) miner.flush();  // hangs if the barrier waits
  producer.join();
  miner.flush();
  EXPECT_EQ(miner.stats().requests, produced);
  EXPECT_EQ(miner.stats().pending, 0u);
  EXPECT_GE(miner.epoch(), 1u);
}

TEST(PublishCoalescing, IdleBacklogPublishesByStalenessDeadline) {
  // Interval out of reach and no flush(): only the staleness deadline can
  // surface the applied records. The drain's idle wait doubles as the
  // deadline poll, so the epoch must advance within ~delay + scheduling.
  const MicroTrace mt = correlated_trace();
  ConcurrentFarmer miner(FarmerConfig{}, mt.dict(), /*shards=*/2,
                         /*ingest_queues=*/1,
                         ConcurrentFarmer::kDefaultMaxPending,
                         /*publish_interval_records=*/1u << 30,
                         /*publish_max_delay_ms=*/50);
  miner.observe_batch(mt.records());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (miner.epoch() == 0 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(miner.epoch(), 1u) << "deadline publish never fired";
  EXPECT_EQ(miner.stats().pending, 0u);
  EXPECT_EQ(miner.stats().requests, mt.records().size());
  EXPECT_GT(miner.access_count(FileId(0)), 0u);
}

TEST(PublishCoalescing, PublishStatsAccountCowSharing) {
  const MicroTrace mt = correlated_trace();
  MinerOptions opts;
  opts.shards = 2;
  const auto miner = make_miner("concurrent", FarmerConfig{}, mt.dict(), opts);
  miner->observe_batch(mt.records());
  miner->flush();
  // Re-ingest only file a's records: a published snapshot still shares
  // every block, so COW must clone a's blocks (files_cloned) while the
  // republish structurally reuses b's and c's (bytes_shared).
  std::vector<TraceRecord> a_only;
  for (const TraceRecord& r : mt.records())
    if (r.file == FileId(0)) a_only.push_back(r);
  ASSERT_FALSE(a_only.empty());
  miner->observe_batch(a_only);
  miner->flush();
  const MinerStats s = miner->stats();
  EXPECT_GE(s.publishes, 2u);
  EXPECT_EQ(s.publishes, s.epoch);
  EXPECT_GT(s.files_cloned, 0u);
  EXPECT_GT(s.bytes_shared, 0u);
  EXPECT_EQ(s.pending, 0u);
}

TEST(PublishCoalescing, SyncBackendsReportNoPublishActivity) {
  const MicroTrace mt = correlated_trace();
  for (const char* backend : {"farmer", "sharded"}) {
    const auto miner = make_miner(backend, FarmerConfig{}, mt.dict());
    miner->observe_batch(mt.records());
    const MinerStats s = miner->stats();
    EXPECT_EQ(s.publishes, 0u) << backend;
    EXPECT_EQ(s.files_cloned, 0u) << backend;
    EXPECT_EQ(s.bytes_shared, 0u) << backend;
  }
}

}  // namespace
}  // namespace farmer
