// The per-file block store and the footprint accounting built on it: the
// BlockStore primitive, its running footprint counters (checked against the
// full walk) on Farmer and ShardedFarmer mining state, and
// Farmer::observe_batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/block_store.hpp"
#include "common/rng.hpp"
#include "core/farmer.hpp"
#include "core/sharded_farmer.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

// -------------------------------------------------------------- BlockStore --

struct Payload {
  int x = 0;
  std::vector<int> heap;

  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return heap.capacity() * sizeof(int);
  }
};

TEST(BlockStore, FindOnEmptyAndOutOfRange) {
  BlockStore<Payload, 4> store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(0), nullptr);
  store.grow_to(10);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.find(3), nullptr);   // grown but never populated
  EXPECT_EQ(store.find(99), nullptr);  // out of range
}

TEST(BlockStore, MutateCreatesAndFindsAcrossPages) {
  BlockStore<Payload, 4> store;  // tiny pages: index 9 is page 2
  store.mutate(9).x = 42;
  store.mutate(0).x = 7;
  ASSERT_NE(store.find(9), nullptr);
  EXPECT_EQ(store.find(9)->x, 42);
  EXPECT_EQ(store.find(0)->x, 7);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.block_count(), 2u);
  // A second mutate of a populated index writes the same block in place.
  const Payload* block = store.find(9);
  store.mutate(9).x = 43;
  EXPECT_EQ(store.find(9), block);
  EXPECT_EQ(store.block_count(), 2u);
}

TEST(BlockStore, FootprintCountsBlocksAndHeap) {
  BlockStore<Payload, 4> store;
  const std::size_t empty = store.footprint_bytes();
  Payload& p = store.mutate(0);
  const std::size_t before = p.heap_bytes();
  p.heap.assign(100, 7);
  store.note_heap_change(before, p.heap_bytes());
  EXPECT_GT(store.footprint_bytes(), empty + 100 * sizeof(int));
  EXPECT_EQ(store.footprint_bytes(), store.recount_footprint_bytes());
}

// Blocks fill chunks of kChunkBlocks in creation order, whatever their
// indices: the block bytes step by one chunk at creations 1, 17, 33, ...,
// and every block reads back its own value across chunk and page
// boundaries.
TEST(BlockStore, ChunkBoundaries) {
  using Store = BlockStore<Payload, 4>;
  constexpr std::size_t kChunk = Store::kChunkBlocks;
  constexpr std::size_t kBlocks = 3 * kChunk + 1;
  Store store;
  EXPECT_EQ(store.block_bytes(), 0u);
  const auto index_of = [](std::size_t n) { return (n * 37) % 101; };
  for (std::size_t n = 0; n < kBlocks; ++n) {
    store.mutate(index_of(n)).x = static_cast<int>(n);
    const std::size_t chunks = n / kChunk + 1;
    ASSERT_EQ(store.block_bytes(), chunks * kChunk * sizeof(Payload))
        << "after block " << n;
    ASSERT_EQ(store.block_count(), n + 1);
    ASSERT_EQ(store.footprint_bytes(), store.recount_footprint_bytes())
        << "after block " << n;
  }
  for (std::size_t n = 0; n < kBlocks; ++n) {
    ASSERT_NE(store.find(index_of(n)), nullptr) << n;
    EXPECT_EQ(store.find(index_of(n))->x, static_cast<int>(n));
  }
  // A second mutate of a populated index creates nothing.
  store.mutate(index_of(kChunk)).x = -1;
  EXPECT_EQ(store.block_count(), kBlocks);
  EXPECT_EQ(store.block_bytes(), 4 * kChunk * sizeof(Payload));
  EXPECT_EQ(store.find(index_of(kChunk))->x, -1);
}

// Chunks never move: a reference taken before two chunks' worth of new
// blocks (and new pages, which grow the page table) still reads and writes
// the same block.
TEST(BlockStore, ReferenceSurvivesNewChunks) {
  using Store = BlockStore<Payload, 4>;
  Store store;
  Payload& held = store.mutate(2);
  held.x = 11;
  const Payload* address = &held;
  for (std::size_t i = 0; i < 2 * Store::kChunkBlocks; ++i)
    store.mutate(100 + 3 * i).x = static_cast<int>(i);
  EXPECT_EQ(store.block_count(), 2 * Store::kChunkBlocks + 1);
  EXPECT_EQ(store.find(2), address);
  EXPECT_EQ(held.x, 11);
  held.x = 12;
  EXPECT_EQ(store.find(2)->x, 12);
  EXPECT_EQ(&store.mutate(2), address);
}

// The running counters against the full walk after every operation the
// store supports: create, reported heap growth and shrink, and moves (a
// moved-from store must read as empty, counters included).
TEST(BlockStore, CountersMatchWalkUnderRandomOps) {
  using Store = BlockStore<Payload, 4>;
  Rng rng(2024);
  std::vector<Store> stores(3);
  const auto pick = [&] {
    return static_cast<std::size_t>(rng.next_below(stores.size()));
  };
  for (int step = 0; step < 3000; ++step) {
    Store& store = stores[pick()];
    const std::uint64_t op = rng.next_below(6);
    if (op <= 1) {
      store.mutate(static_cast<std::size_t>(rng.next_below(48))).x = step;
    } else if (op <= 4) {
      Payload& p = store.mutate(static_cast<std::size_t>(rng.next_below(48)));
      const std::size_t before = p.heap_bytes();
      if (rng.next_below(4) == 0) {
        p.heap.clear();
        p.heap.shrink_to_fit();
      } else {
        p.heap.resize(p.heap.size() + 1 + rng.next_below(40), step);
      }
      store.note_heap_change(before, p.heap_bytes());
    } else {
      const std::size_t from = pick();
      const std::size_t to = pick();
      Store moved(std::move(stores[from]));
      ASSERT_EQ(stores[from].block_count(), 0u) << "step " << step;
      ASSERT_EQ(stores[from].footprint_bytes(),
                stores[from].recount_footprint_bytes())
          << "moved-from, step " << step;
      stores[to] = std::move(moved);
    }
    for (std::size_t k = 0; k < stores.size(); ++k)
      ASSERT_EQ(stores[k].footprint_bytes(),
                stores[k].recount_footprint_bytes())
          << "store " << k << ", step " << step;
  }
}

// ---------------------------------------------------- Farmer footprint --

MicroTrace correlated_trace() {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/proj/a");
  const FileId b = mt.file("b", "/home/u0/proj/b");
  const FileId c = mt.file("c", "/home/u0/proj/c");
  for (int i = 0; i < 8; ++i) {
    mt.access(a, "u0", "pidA");
    mt.access(b, "u0", "pidA");
    mt.access(c, "u0", "pidA");
  }
  return mt;
}

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

// Counter == walk on real mining state. Farmer's store changes a block's
// heap only where a SmallVector can grow — successor push, Correlator-List
// upsert, the signature rebuild, the restore seams — so each of those
// sites reports it; the walk catches any that does not. The roomier config
// grows successor sets and Correlator Lists well past their inline
// capacity, so most blocks own heap.
FarmerConfig roomy_config() {
  FarmerConfig cfg;
  cfg.max_successors = 40;
  cfg.correlator_capacity = 12;
  return cfg;
}

/// Paths deeper than a SmallVector's inline capacity, so signatures own
/// heap (no paper-trace path does).
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

/// The footprint breakdown against a walk of every block: each heap part
/// equals the summed heap of its structure, the blocks part is the chunks
/// the populated blocks fill, and the parts sum to footprint_bytes().
void expect_breakdown_matches_walk(const Farmer& model,
                                   const std::string& what) {
  const FootprintBreakdown parts = model.stats().footprint;
  EXPECT_EQ(parts.total(), model.footprint_bytes()) << what;
  const SignatureGraph& g = model.graph();
  FootprintBreakdown walked;
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const FileId f(static_cast<std::uint32_t>(i));
    if (!g.has_node(f)) continue;
    ++blocks;
    walked.successor_heap += g.successors(f).heap_bytes();
    walked.list_heap += g.correlators(f).heap_bytes();
    walked.signature_heap += g.payload(f)->heap_bytes();
  }
  constexpr std::size_t kChunk = BlockStore<Payload>::kChunkBlocks;
  EXPECT_EQ(parts.blocks,
            (blocks + kChunk - 1) / kChunk * kChunk *
                SignatureGraph::node_block_bytes())
      << what;
  EXPECT_EQ(parts.successor_heap, walked.successor_heap) << what;
  EXPECT_EQ(parts.list_heap, walked.list_heap) << what;
  EXPECT_EQ(parts.signature_heap, walked.signature_heap) << what;
}

/// Hands out every file's Correlator List both ways a reader gets it: the
/// model's own list, shared in place by correlator_list(), and the copy
/// snapshot() makes. Neither may move the counters off the walk.
void expect_shares_and_copies_keep_counters(const Farmer& model,
                                            std::uint32_t files,
                                            const std::string& what) {
  const std::size_t before = model.footprint_bytes();
  for (std::uint32_t f = 0; f < files; ++f) {
    const auto& shared = model.correlator_list(FileId(f));
    const CorrelatorView copy = model.snapshot(FileId(f));
    ASSERT_EQ(copy.size(), shared.size()) << what << " file " << f;
  }
  EXPECT_EQ(model.footprint_bytes(), before) << what;
  EXPECT_EQ(model.footprint_bytes(), model.recount_footprint_bytes()) << what;
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
      constexpr std::size_t kChunk = 256;
      for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, t.records.size() - i);
        live.observe_batch(std::span<const TraceRecord>(&t.records[i], n));
        ASSERT_EQ(live.footprint_bytes(), live.recount_footprint_bytes())
            << t.name << " after record " << i + n;
        if ((i / kChunk) % 4 == 0) {
          const std::string what =
              t.name + " after record " + std::to_string(i + n);
          expect_shares_and_copies_keep_counters(
              live, static_cast<std::uint32_t>(t.file_count()), what);
          expect_breakdown_matches_walk(live, what);
        }
      }
      expect_breakdown_matches_walk(live, t.name);
      // The roomy config spills successor sets and Correlator Lists, and the
      // deep paths spill signatures, so every heap part is exercised.
      const FootprintBreakdown parts = live.stats().footprint;
      if (cfg.max_successors > FarmerConfig{}.max_successors) {
        EXPECT_GT(parts.successor_heap, 0u) << t.name;
        EXPECT_GT(parts.list_heap, 0u) << t.name;
      }
      if (t.name == "deep") {
        EXPECT_GT(parts.signature_heap, 0u);
      }

      const std::string dir =
          ::testing::TempDir() + "footprint_counters_" + t.name;
      std::filesystem::remove_all(dir);
      live.save(dir);
      Farmer restored(cfg, t.dict);
      restored.load(dir);
      EXPECT_EQ(restored.footprint_bytes(),
                restored.recount_footprint_bytes())
          << t.name;
      expect_breakdown_matches_walk(restored, t.name + " restored");
      // Keep mining on the restored model: its exact-size restored lists
      // grow again through the reporting sites.
      restored.observe_batch(t.records);
      EXPECT_EQ(restored.footprint_bytes(),
                restored.recount_footprint_bytes())
          << t.name;
      expect_breakdown_matches_walk(restored, t.name + " restored, mined");
      std::filesystem::remove_all(dir);
    }
  }
}

void expect_shard_counters_match_walk(const ShardedFarmer& sharded,
                                      const std::string& what) {
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    EXPECT_EQ(sharded.shard(s).footprint_bytes(),
              sharded.shard(s).recount_footprint_bytes())
        << what << ", shard " << s;
    expect_breakdown_matches_walk(sharded.shard(s),
                                  what + ", shard " + std::to_string(s));
  }
  // The sharded breakdown is the shards' plus the ShardedFarmer object.
  EXPECT_EQ(sharded.stats().footprint.total(), sharded.footprint_bytes())
      << what;
}

// Checkpoint exports taken mid-ingest leave every shard's counters on its
// walk, and a model restored from one of them keeps its counters exact
// while it mines the rest of the trace.
TEST(FarmerFootprint, ShardedCountersMatchWalkWithExportsAndRestore) {
  const Trace t = make_paper_trace(TraceKind::kHP, 59, 0.02);
  const FarmerConfig cfg = roomy_config();
  ShardedFarmer sharded(cfg, t.dict, /*shards=*/4, /*apply_threads=*/1);
  const std::string root = ::testing::TempDir() + "footprint_counters_sharded";
  std::filesystem::remove_all(root);
  struct Export {
    std::string dir;
    std::size_t records = 0;  // trace prefix the export covers
  };
  std::vector<Export> exports;
  constexpr std::size_t kChunk = 200;
  for (std::size_t i = 0; i < t.records.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, t.records.size() - i);
    sharded.observe_batch(std::span<const TraceRecord>(&t.records[i], n));
    if ((i / kChunk) % 8 == 0) {
      exports.push_back(
          {root + "/export" + std::to_string(exports.size()), i + n});
      sharded.save(exports.back().dir);
      expect_shard_counters_match_walk(
          sharded, "after export of " + std::to_string(i + n) + " records");
    }
  }
  std::size_t walked = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s)
    walked += sharded.shard(s).recount_footprint_bytes();
  expect_shard_counters_match_walk(sharded, "end of trace");
  EXPECT_EQ(sharded.footprint_bytes(), sizeof(ShardedFarmer) + walked);

  ASSERT_GE(exports.size(), 2u);
  const Export& mid = exports[exports.size() / 2];
  ShardedFarmer restored(cfg, t.dict, /*shards=*/4, /*apply_threads=*/1);
  restored.load(mid.dir);
  expect_shard_counters_match_walk(restored, "restored");
  // Keep mining the rest of the trace on the restored model: its
  // exact-size restored lists grow again through the reporting sites.
  restored.observe_batch(std::span<const TraceRecord>(
      t.records.data() + mid.records, t.records.size() - mid.records));
  expect_shard_counters_match_walk(restored, "restored, then mined");
  std::filesystem::remove_all(root);
}

// A snapshot belongs to its reader, not to the model: holding every file's
// snapshot — a copy of Farmer's list, a merge of ShardedFarmer's — leaves
// each model's footprint where it was.
TEST(FarmerFootprint, SnapshotFootprintIsStable) {
  const Trace t = make_paper_trace(TraceKind::kHP, 59, 0.02);
  Farmer farmer(FarmerConfig{}, t.dict);
  ShardedFarmer sharded(FarmerConfig{}, t.dict, /*shards=*/4,
                        /*apply_threads=*/1);
  farmer.observe_batch(t.records);
  sharded.observe_batch(t.records);
  const auto files = static_cast<std::uint32_t>(t.file_count());
  for (const CorrelationMiner* model :
       {static_cast<const CorrelationMiner*>(&farmer),
        static_cast<const CorrelationMiner*>(&sharded)}) {
    const std::size_t before = model->footprint_bytes();
    std::vector<CorrelatorView> held;
    std::size_t listed = 0;
    for (std::uint32_t f = 0; f < files; ++f) {
      held.push_back(model->snapshot(FileId(f)));
      listed += held.back().size();
    }
    EXPECT_GT(listed, 0u) << model->name();
    EXPECT_EQ(model->footprint_bytes(), before) << model->name();
    held.clear();
    EXPECT_EQ(model->footprint_bytes(), before) << model->name();
  }
  EXPECT_EQ(farmer.footprint_bytes(), farmer.recount_footprint_bytes());
  expect_shard_counters_match_walk(sharded, "after snapshots");
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

}  // namespace
}  // namespace farmer
