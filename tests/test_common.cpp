// Unit tests for src/common: ids, RNG, Zipf, interner, stats, SmallVector,
// parallel helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/interner.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/zipf.hpp"

namespace farmer {
namespace {

// ------------------------------------------------------------- TaggedId --

TEST(TaggedId, DefaultIsInvalid) {
  FileId f;
  EXPECT_FALSE(f.valid());
  EXPECT_EQ(f, FileId());
}

TEST(TaggedId, ValueRoundTrip) {
  FileId f(42);
  EXPECT_TRUE(f.valid());
  EXPECT_EQ(f.value(), 42u);
}

TEST(TaggedId, Ordering) {
  EXPECT_LT(FileId(1), FileId(2));
  EXPECT_LE(FileId(2), FileId(2));
  EXPECT_GT(FileId(3), FileId(2));
  EXPECT_NE(FileId(1), FileId(2));
}

TEST(TaggedId, DistinctTagTypesDoNotMix) {
  // Compile-time property: FileId and UserId are different types.
  static_assert(!std::is_same_v<FileId, UserId>);
}

TEST(TaggedId, HashSpreadsDenseIds) {
  std::set<std::size_t> buckets;
  std::hash<FileId> h;
  for (std::uint32_t i = 0; i < 64; ++i)
    buckets.insert(h(FileId(i)) % 1024);
  // Dense ids should not collapse into few buckets.
  EXPECT_GT(buckets.size(), 48u);
}

TEST(SimTimeConversion, ToMs) {
  EXPECT_DOUBLE_EQ(to_ms(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(kSecond), 1000.0);
}

// ------------------------------------------------------------------ Rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, ExponentialMeanApprox) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.next_normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(42);
  Rng child = parent.split();
  // Child continues deterministically and differs from the parent stream.
  Rng parent2(42);
  Rng child2 = parent2.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Rng, BernoulliProbability) {
  Rng rng(21);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// ----------------------------------------------------------------- Zipf --

TEST(ZipfTable, PmfDecreasesWithRank) {
  ZipfTable z(100, 1.0);
  for (std::size_t r = 1; r < 100; ++r) EXPECT_LE(z.pmf(r), z.pmf(r - 1));
}

TEST(ZipfTable, PmfSumsToOne) {
  ZipfTable z(50, 0.8);
  double sum = 0;
  for (std::size_t r = 0; r < 50; ++r) sum += z.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTable, SamplesMatchPmfHead) {
  ZipfTable z(20, 1.0);
  Rng rng(3);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.pmf(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, z.pmf(1), 0.01);
}

TEST(ZipfTable, SingleElement) {
  ZipfTable z(1, 1.2);
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

// ------------------------------------------------------------- Interner --

TEST(Interner, InternReturnsStableIds) {
  Interner in;
  const TokenId a = in.intern("hello");
  const TokenId b = in.intern("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("hello"), a);
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, ResolveRoundTrip) {
  Interner in;
  const TokenId a = in.intern("user1");
  EXPECT_EQ(in.resolve(a), "user1");
}

TEST(Interner, LookupMissingIsInvalid) {
  Interner in;
  EXPECT_FALSE(in.lookup("nope").valid());
  (void)in.intern("yes");
  EXPECT_TRUE(in.lookup("yes").valid());
}

TEST(Interner, FootprintGrows) {
  Interner in;
  const auto before = in.footprint_bytes();
  for (int i = 0; i < 100; ++i) (void)in.intern("token" + std::to_string(i));
  EXPECT_GT(in.footprint_bytes(), before);
}

// ---------------------------------------------------------------- Stats --

TEST(RunningStats, MeanVarianceAgainstNaive) {
  RunningStats st;
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 100};
  double sum = 0;
  for (double x : xs) {
    st.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(st.mean(), mean, 1e-9);
  EXPECT_NEAR(st.variance(), ss / (static_cast<double>(xs.size()) - 1), 1e-9);
  EXPECT_EQ(st.min(), 1);
  EXPECT_EQ(st.max(), 100);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_normal(5, 3);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(LatencyHistogram, QuantilesBracketValues) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  // <=6.25% relative bucket error allowed.
  EXPECT_NEAR(static_cast<double>(h.p50()), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.p99()), 990.0, 990.0 * 0.07);
  EXPECT_GE(h.max_value(), 1000u);
}

TEST(LatencyHistogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.record(10);
  b.record(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GE(a.max_value(), 1000000u);
}

TEST(LatencyHistogram, SmallValuesExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 0u);
}

TEST(RatioCounter, Basics) {
  RatioCounter r;
  r.hit();
  r.miss();
  r.miss();
  EXPECT_EQ(r.numerator(), 1u);
  EXPECT_EQ(r.denominator(), 3u);
  EXPECT_NEAR(r.ratio(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.percent(), 100.0 / 3.0, 1e-9);
}

TEST(RatioCounter, EmptySafe) {
  RatioCounter r;
  EXPECT_EQ(r.ratio(), 0.0);
}

TEST(Format, Doubles) { EXPECT_EQ(fmt_double(3.14159, 2), "3.14"); }

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(512), "512.0 B");
  EXPECT_EQ(fmt_bytes(1536), "1.5 KB");
  EXPECT_EQ(fmt_bytes(103180288), "98.4 MB");
}

// ---------------------------------------------------------- SmallVector --

TEST(SmallVector, StartsInline) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.heap_bytes(), 0u);
  v.push_back(1);
  v.push_back(2);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVector, SpillsToHeap) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  EXPECT_GT(v.heap_bytes(), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, CopyPreservesContents) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(i);
  SmallVector<int, 2> w(v);
  EXPECT_EQ(v, w);
  w.push_back(99);
  EXPECT_NE(v, w);
}

TEST(SmallVector, MoveStealsHeap) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(i);
  const int* data = v.data();
  SmallVector<int, 2> w(std::move(v));
  EXPECT_EQ(w.data(), data);  // heap buffer moved, not copied
  EXPECT_EQ(w.size(), 6u);
  EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(SmallVector, EraseAtShiftsTail) {
  SmallVector<int, 8> v{1, 2, 3, 4};
  v.erase_at(1);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 3);
  EXPECT_EQ(v[2], 4);
}

TEST(SmallVector, ResizeFills) {
  SmallVector<int, 4> v;
  v.resize(3, 7);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 7);
  v.resize(1);
  EXPECT_EQ(v.size(), 1u);
}

TEST(SmallVector, AssignmentSelfAndCross) {
  SmallVector<int, 2> v{1, 2, 3};
  SmallVector<int, 2> w;
  w = v;
  EXPECT_EQ(w, v);
  w = std::move(v);
  EXPECT_EQ(w.size(), 3u);
}

/// A std::vector model of one SmallVector<T, N>: its contents and the
/// capacity the growth policy must give it (N inline; a spill allocates the
/// larger of the request and 2N; a full push_back doubles).
template <typename T, std::size_t N>
struct SmallVectorModel {
  std::vector<T> items;
  std::size_t capacity = N;

  void grow_to(std::size_t n) {
    if (n > capacity) capacity = std::max(n, 2 * N);
  }
  /// The state a copy of `other` starts in.
  static SmallVectorModel copy_of(const SmallVectorModel& other) {
    SmallVectorModel m;
    m.items = other.items;
    m.grow_to(other.items.size());
    return m;
  }
};

template <typename T, std::size_t N>
void expect_matches(const SmallVector<T, N>& v,
                    const SmallVectorModel<T, N>& m) {
  ASSERT_EQ(v.size(), m.items.size());
  EXPECT_EQ(v.empty(), m.items.empty());
  EXPECT_EQ(static_cast<std::size_t>(v.end() - v.begin()), v.size());
  EXPECT_TRUE(std::equal(v.begin(), v.end(), m.items.begin()));
  EXPECT_EQ(v.capacity(), m.capacity);
  EXPECT_EQ(v.is_inline(), v.capacity() == N);
  EXPECT_EQ(v.heap_bytes(), v.is_inline() ? 0 : m.capacity * sizeof(T));
}

/// Drives two vectors through random operations, copies and moves between
/// them included, and checks both against their models after every one.
/// Whenever a vector is full, the next operation grows it from one of its
/// own elements: push_back(v[0]) or resize(n, v[0]), whose argument lives
/// in the storage the growth replaces.
template <typename T, std::size_t N>
void run_random_ops(std::uint64_t seed) {
  SCOPED_TRACE("N = " + std::to_string(N) + ", sizeof(T) = " +
               std::to_string(sizeof(T)));
  using Vec = SmallVector<T, N>;
  using Model = SmallVectorModel<T, N>;
  Rng rng(seed);
  const auto value = [&] { return static_cast<T>(rng.next_u64()); };
  Vec v[2];
  Model m[2];
  for (int op = 0; op < 4000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const std::size_t i = rng.next_below(2);
    const std::size_t j = 1 - i;
    Vec& a = v[i];
    Model& ma = m[i];
    if (!a.empty() && a.size() == a.capacity()) {
      const T first = ma.items.front();
      if (rng.next_below(2) == 0) {
        a.push_back(a[0]);
        ma.grow_to(ma.capacity * 2);
        ma.items.push_back(first);
      } else {
        const std::size_t n = a.size() + 1 + rng.next_below(N + 2);
        a.resize(n, a[0]);
        ma.grow_to(n);
        ma.items.resize(n, first);
      }
    } else {
      // Past 4N + 8 elements, shrinking ops keep the sizes small.
      const bool large = a.size() > 4 * N + 8;
      switch (rng.next_below(13)) {
        case 0:
        case 1: {
          const T x = value();
          a.push_back(x);
          if (ma.items.size() == ma.capacity) ma.grow_to(ma.capacity * 2);
          ma.items.push_back(x);
          break;
        }
        case 2:
          if (!a.empty()) {
            a.pop_back();
            ma.items.pop_back();
          }
          break;
        case 3:
          if (!a.empty()) {
            const std::size_t k = rng.next_below(a.size());
            a.erase_at(k);
            ma.items.erase(ma.items.begin() + static_cast<std::ptrdiff_t>(k));
          }
          break;
        case 4: {
          const std::size_t n = rng.next_below(
              large ? a.size() + 1 : a.size() + 2 * N + 2);
          const T x = value();
          a.resize(n, x);
          ma.grow_to(n);
          ma.items.resize(n, x);
          break;
        }
        case 5: {
          const std::size_t n = rng.next_below(a.capacity() + 2 * N + 2);
          a.reserve(n);
          ma.grow_to(n);
          break;
        }
        case 6:
          a.clear();
          ma.items.clear();
          break;
        case 7: {  // copy construction
          Vec c(a);
          Model mc = Model::copy_of(ma);
          expect_matches(c, mc);
          v[j] = std::move(c);  // move assignment steals c's heap
          m[j] = mc;
          expect_matches(c, Model{});  // NOLINT(bugprone-use-after-move)
          break;
        }
        case 8:  // copy assignment
          v[j] = a;
          m[j] = Model::copy_of(ma);
          break;
        case 9: {  // move construction
          Vec c(std::move(a));
          expect_matches(c, ma);
          v[j] = std::move(c);
          m[j] = ma;
          ma = Model{};
          break;
        }
        case 10:  // move assignment
          v[j] = std::move(a);
          m[j] = ma;
          ma = Model{};
          break;
        case 11: {  // self copy assignment
          const Vec& self = a;
          a = self;
          break;
        }
        case 12: {  // self move assignment
          Vec& self = a;
          a = std::move(self);
          break;
        }
        default:
          break;
      }
    }
    expect_matches(v[0], m[0]);
    expect_matches(v[1], m[1]);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SmallVector, MatchesStdVectorUnderRandomOps) {
  run_random_ops<std::uint32_t, 1>(1);
  run_random_ops<std::uint32_t, 4>(2);
  run_random_ops<std::uint32_t, 12>(3);
  run_random_ops<std::uint64_t, 1>(4);
  run_random_ops<std::uint64_t, 4>(5);
  run_random_ops<std::uint64_t, 12>(6);
  // The capacity is 32 bits: a larger request throws before allocating
  // and leaves the vector as it was.
  SmallVector<std::uint32_t, 4> v{1, 2};
  EXPECT_THROW(v.reserve(std::size_t{1} << 32), std::length_error);
  EXPECT_EQ(v, (SmallVector<std::uint32_t, 4>{1, 2}));
  EXPECT_TRUE(v.is_inline());
}

// ------------------------------------------------------------- Parallel --

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroIterationsEarlyReturnsBeforeWorkerSetup) {
  // n == 0 sizes the pool at zero lanes: no helper thread is spawned and
  // run() returns before touching the job slot.
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, HardwareParallelismIsPositive) {
  EXPECT_GE(hardware_parallelism(), 1u);
}

// WorkerPool: the persistent-thread executor behind the shard-disjoint
// parallel apply. These run in the TSan CI tier via the Parallel.* filter,
// racing the generation handshake and the work-stealing index.
TEST(Parallel, WorkerPoolCoversAllIndicesExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, WorkerPoolIsReusableAcrossManyDispatches) {
  // Many jobs through one pool: each run() is a fresh generation, so a
  // stale helper that double-claimed or missed a job would corrupt the
  // per-round sums with high probability. Alternating a large and a small
  // job catches a late helper that woke for the large job and claims the
  // small job's items with the large job's body and item count: it would
  // call the destroyed body, or see an index past the small job's end.
  WorkerPool pool(3);
  std::atomic<int> out_of_range{0};
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = round % 2 == 0 ? 64 : 2;
    std::atomic<std::size_t> sum{0};
    pool.run(n, [&, n](std::size_t i) {
      if (i >= n) out_of_range.fetch_add(1);
      sum.fetch_add(i + 1);
    });
    ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(Parallel, WorkerPoolZeroAndSingleItemShortCircuit) {
  WorkerPool pool(2);
  int calls = 0;
  pool.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller: no handshake, body sees index 0.
  pool.run(1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, WorkerPoolSingleThreadDegradesToSerialLoop) {
  // threads == 1 spawns no helpers; run() must still execute every index,
  // in order, on the caller.
  WorkerPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Parallel, WorkerPoolMoreItemsThanThreads) {
  WorkerPool pool(2);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ----------------------------------------------------------------- Hash --

TEST(Hash, PairHashDiffersOnSwappedPair) {
  PairHash h;
  const auto a = h(std::make_pair(1u, 2u));
  const auto b = h(std::make_pair(2u, 1u));
  EXPECT_NE(a, b);
}

TEST(Hash, Mix64Bijective) {
  // mix64 must not collide on a small dense range (it is invertible).
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace farmer
