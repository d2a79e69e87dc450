// Tests for the prefetch-aware LRU metadata cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cache/metadata_cache.hpp"
#include "common/rng.hpp"

namespace farmer {
namespace {

TEST(Lru, EvictsLeastRecentlyUsed) {
  MetadataCache c(2);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(2));
  (void)c.access(FileId(1));  // 1 becomes MRU
  c.insert_demand(FileId(3)); // evicts 2
  EXPECT_TRUE(c.contains(FileId(1)));
  EXPECT_FALSE(c.contains(FileId(2)));
  EXPECT_TRUE(c.contains(FileId(3)));
}

// ------------------------------------------------------- MetadataCache ---

TEST(MetadataCache, CapacityNeverExceeded) {
  MetadataCache c(8);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const FileId f(static_cast<std::uint32_t>(rng.next_below(64)));
    if (!c.access(f)) {
      if (rng.next_bool(0.5))
        c.insert_demand(f);
      else
        c.insert_prefetch(f);
    }
    ASSERT_LE(c.size(), 8u);
  }
}

TEST(MetadataCache, HitAfterInsert) {
  MetadataCache c(4);
  c.insert_demand(FileId(7));
  EXPECT_TRUE(c.access(FileId(7)));
}

TEST(MetadataCache, MissOnEmpty) {
  MetadataCache c(4);
  EXPECT_FALSE(c.access(FileId(1)));
}

TEST(MetadataCache, EraseRemoves) {
  MetadataCache c(4);
  c.insert_demand(FileId(1));
  c.erase(FileId(1));
  EXPECT_FALSE(c.contains(FileId(1)));
  EXPECT_EQ(c.size(), 0u);
}

TEST(MetadataCache, WorkingSetSmallerThanCapacityAlwaysHitsEventually) {
  MetadataCache c(8);
  // Working set of 4 distinct files cycled: after the first pass, every
  // access must hit.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      if (!c.access(FileId(f))) c.insert_demand(FileId(f));
    }
  }
  EXPECT_EQ(c.stats().demand.denominator(), 12u);
  EXPECT_GE(c.stats().demand.numerator(), 8u);
}

TEST(MetadataCache, DuplicateInsertIsNoop) {
  MetadataCache c(4);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(1));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_FALSE(c.insert_prefetch(FileId(1)));
  EXPECT_EQ(c.stats().prefetch_inserted, 0u);
}

TEST(MetadataCache, DemandHitMissAccounting) {
  MetadataCache c(4);
  EXPECT_FALSE(c.access(FileId(1)));
  c.insert_demand(FileId(1));
  EXPECT_TRUE(c.access(FileId(1)));
  EXPECT_EQ(c.stats().demand.denominator(), 2u);
  EXPECT_EQ(c.stats().demand.numerator(), 1u);
  EXPECT_DOUBLE_EQ(c.stats().hit_ratio(), 0.5);
}

TEST(MetadataCache, PrefetchAccuracyCountsFirstUse) {
  MetadataCache c(4);
  c.insert_prefetch(FileId(1));
  c.insert_prefetch(FileId(2));
  (void)c.access(FileId(1));  // used
  (void)c.access(FileId(1));  // second hit doesn't double count
  EXPECT_EQ(c.stats().prefetch_inserted, 2u);
  EXPECT_EQ(c.stats().prefetch_used, 1u);
  EXPECT_DOUBLE_EQ(c.stats().prefetch_accuracy(), 0.5);
}

TEST(MetadataCache, PollutionCountsEvictedUnused) {
  MetadataCache c(2);
  c.insert_prefetch(FileId(1));
  c.insert_prefetch(FileId(2));
  c.insert_demand(FileId(3));  // evicts 1 (unused prefetch)
  c.insert_demand(FileId(4));  // evicts 2 (unused prefetch)
  EXPECT_EQ(c.stats().prefetch_evicted_unused, 2u);
  EXPECT_DOUBLE_EQ(c.stats().pollution_ratio(), 1.0);
}

TEST(MetadataCache, UsedPrefetchNotCountedAsPollution) {
  MetadataCache c(2);
  c.insert_prefetch(FileId(1));
  (void)c.access(FileId(1));
  c.insert_demand(FileId(2));
  c.insert_demand(FileId(3));  // evicts the used prefetch
  EXPECT_EQ(c.stats().prefetch_evicted_unused, 0u);
}

TEST(MetadataCache, CapacityOneWorks) {
  MetadataCache c(1);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(2));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.contains(FileId(2)));
}

TEST(MetadataCache, ZeroCapacityClampedToOne) {
  MetadataCache c(0);
  c.insert_demand(FileId(1));
  EXPECT_EQ(c.capacity(), 1u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(MetadataCache, EvictionCounterAdvances) {
  MetadataCache c(2);
  for (std::uint32_t i = 0; i < 10; ++i) c.insert_demand(FileId(i));
  EXPECT_EQ(c.stats().evictions, 8u);
}

// An id past the end of the slot table (or the invalid id) is absent: it
// answers false, counts a demand miss on access and changes nothing else.
TEST(MetadataCache, IdsPastTheTableAreAbsent) {
  MetadataCache c(4);
  EXPECT_FALSE(c.contains(FileId(0)));  // empty table
  c.insert_demand(FileId(3));           // the table now covers ids 0..3
  for (const FileId f : {FileId(4), FileId(1u << 20), FileId()}) {
    EXPECT_FALSE(c.contains(f)) << f;
    EXPECT_FALSE(c.access(f)) << f;
    c.erase(f);
    EXPECT_EQ(c.size(), 1u) << f;
  }
  EXPECT_EQ(c.stats().demand.denominator(), 3u);
  EXPECT_EQ(c.stats().demand.numerator(), 0u);
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_TRUE(c.access(FileId(3)));

  // The invalid id cannot become resident: it is the recency list's end
  // marker, and indexing by it would size the table to 2^32 slots.
  EXPECT_THROW(c.insert_demand(FileId()), std::invalid_argument);
  EXPECT_THROW((void)c.insert_prefetch(FileId()), std::invalid_argument);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.stats().prefetch_inserted, 0u);
}

// Every operation of the cache, mixed at random over a small key set,
// against a reference model: a recency list whose entries carry the
// unused-prefetch flag, plus the counters CacheStats keeps. Residency and
// every counter are compared after each operation, so a recency order that
// drifts (a prefetched entry left in place on its first demand hit) shows at
// the first eviction it changes, and a miscounted pollution at the op itself.
// Two key sets run: 24 dense ids, all in play from the first op, and 24
// sparse ids over [0, 2^20) that join in ascending order, one every 500 ops,
// so the slot table grows past its end mid-run with entries resident.
TEST(Lru, MatchesReferenceModelUnderRandomOps) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kKeys = 24;
  constexpr std::uint32_t kSpan = 1u << 20;

  struct KeySet {
    const char* name;
    std::vector<FileId> keys;
    int ops_per_new_key;  ///< 0: every key from the first op
  };
  KeySet dense{"dense", {}, 0};
  for (std::uint32_t k = 0; k < kKeys; ++k) dense.keys.emplace_back(k);
  KeySet sparse{"sparse", {}, 500};
  Rng draw(5);
  while (sparse.keys.size() < kKeys) {
    const FileId f(static_cast<std::uint32_t>(draw.next_below(kSpan)));
    if (std::find(sparse.keys.begin(), sparse.keys.end(), f) ==
        sparse.keys.end())
      sparse.keys.push_back(f);
  }
  std::sort(sparse.keys.begin(), sparse.keys.end());

  for (const KeySet& set : {dense, sparse}) {
    SCOPED_TRACE(set.name);
    MetadataCache c(kCapacity);

    struct Entry {
      FileId file;
      bool unused_prefetch;
    };
    std::vector<Entry> ref;  // front = LRU, back = MRU
    CacheStats want;
    const auto find = [&](FileId f) {
      return std::find_if(ref.begin(), ref.end(),
                          [f](const Entry& e) { return e.file == f; });
    };
    const auto drop = [&](std::vector<Entry>::iterator it) {
      if (it->unused_prefetch) ++want.prefetch_evicted_unused;
      ref.erase(it);
    };
    const auto insert = [&](FileId f, bool prefetched) {
      if (ref.size() == kCapacity) {
        drop(ref.begin());
        ++want.evictions;
      }
      ref.push_back({f, prefetched});
    };

    Rng rng(77);
    for (int op = 0; op < 20000; ++op) {
      const std::size_t in_play =
          set.ops_per_new_key == 0
              ? kKeys
              : std::min(kKeys, 1 + static_cast<std::size_t>(
                                        op / set.ops_per_new_key));
      const FileId f = set.keys[rng.next_below(in_play)];
      const auto it = find(f);
      const bool resident = it != ref.end();
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 5) {  // demand access, fetched on a miss (the MDS pattern)
        ASSERT_EQ(c.access(f), resident) << "op " << op;
        if (resident) {
          want.demand.hit();
          Entry e = *it;
          if (e.unused_prefetch) {
            ++want.prefetch_used;
            e.unused_prefetch = false;
          }
          ref.erase(it);
          ref.push_back(e);
        } else {
          want.demand.miss();
          c.insert_demand(f);
          insert(f, /*prefetched=*/false);
        }
      } else if (kind < 8) {
        ASSERT_EQ(c.insert_prefetch(f), !resident) << "op " << op;
        if (!resident) {
          ++want.prefetch_inserted;
          insert(f, /*prefetched=*/true);
        }
      } else if (kind < 9) {
        c.erase(f);
        if (resident) drop(it);
      } else {
        c.insert_demand(f);  // a no-op when resident
        if (!resident) insert(f, /*prefetched=*/false);
      }

      ASSERT_EQ(c.size(), ref.size()) << "op " << op;
      for (const FileId k : set.keys)
        ASSERT_EQ(c.contains(k), find(k) != ref.end())
            << "op " << op << " key " << k;
      ASSERT_FALSE(c.contains(FileId(kSpan))) << "op " << op;
      const CacheStats& got = c.stats();
      ASSERT_EQ(got.demand.numerator(), want.demand.numerator())
          << "op " << op;
      ASSERT_EQ(got.demand.denominator(), want.demand.denominator())
          << "op " << op;
      ASSERT_EQ(got.prefetch_inserted, want.prefetch_inserted) << "op " << op;
      ASSERT_EQ(got.prefetch_used, want.prefetch_used) << "op " << op;
      ASSERT_EQ(got.prefetch_evicted_unused, want.prefetch_evicted_unused)
          << "op " << op;
      ASSERT_EQ(got.evictions, want.evictions) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace farmer
