// Property-based suites: invariants that must hold across the whole
// configuration space, swept with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/rng.hpp"
#include "core/sharded_farmer.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "prefetch/replay.hpp"
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
    const CorrelatorView list = model.snapshot(FileId(f));
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

TEST_P(FarmerConfigSweep, EvaluatedPairMatchesPointQuery) {
  // The ingest kernel against the query surface: each pair observe()
  // evaluates is listed with exactly the degree the point query reads
  // afterwards, or not at all when that degree is below max_strength.
  const auto [p, max_strength] = GetParam();
  FarmerConfig cfg;
  cfg.p = p;
  cfg.max_strength = max_strength;
  const Trace& t = small_hp();
  Farmer model(cfg, t.dict);
  std::vector<FileId> preds;
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    const FileId file = t.records[i].file;
    preds.clear();
    model.access_window().for_each_predecessor(
        file, [&](FileId q, std::size_t distance) {
          if (AccessWindow::lda_weight(distance, cfg.lda_delta) > 0.0)
            preds.push_back(q);
        });
    model.observe(t.records[i]);
    for (const FileId q : preds) {
      const double r = model.correlation_degree(q, file);
      const auto& list = model.correlator_list(q);
      const auto it =
          std::find_if(list.begin(), list.end(),
                       [&](const Correlator& c) { return c.file == file; });
      if (r < max_strength) {
        ASSERT_EQ(it, list.end())
            << "record " << i << ": " << q.value() << " -> " << file.value()
            << " listed at R = " << r;
      } else if (it != list.end()) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(it->degree),
                  std::bit_cast<std::uint32_t>(static_cast<float>(r)))
            << "record " << i << ": " << q.value() << " -> " << file.value()
            << " listed at " << it->degree << ", point query " << r;
      }
    }
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
    entries += model.snapshot(FileId(f)).size();
  EXPECT_GT(entries, t.file_count() / 20);
}

INSTANTIATE_TEST_SUITE_P(AllTraces, GeneratorSweep,
                         ::testing::Values(TraceKind::kLLNL, TraceKind::kINS,
                                           TraceKind::kRES, TraceKind::kHP),
                         [](const auto& info) {
                           return std::string(trace_kind_name(info.param));
                         });

// ------------------------------------------- parallel-apply stress --

// The shard-disjoint worker pool under repetition: a 4-lane ShardedFarmer
// re-runs the parallel apply across many batches while a serial twin
// ingests the same stream record by record. TSan (CI runs this suite via
// the ParallelApplyStress.* filter with --gtest_repeat) races the pool's
// generation handshake, work-stealing counter and completion accounting;
// the bitwise compare catches any cross-shard write the race detector
// misses. Neither backend permits concurrent queries, so the stress here
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
    const CorrelatorView a = serial.snapshot(id);
    const CorrelatorView b = lanes.snapshot(id);
    ASSERT_EQ(a.size(), b.size()) << "file " << f;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].file, b[i].file) << "file " << f << " slot " << i;
      EXPECT_EQ(a[i].degree, b[i].degree) << "file " << f << " slot " << i;
    }
  }
  EXPECT_EQ(lanes.stats().apply_parallel_records, t.records.size());
}

// The stream as several producers hand it in: per-process streams cut into
// small chunks and interleaved round-robin, each chunk one observe_batch
// whose shard slices the four lanes drain concurrently. Between batches
// every list the model answers must stay well-formed (bounded, self-free,
// sorted) and the counters must account for every record; at the end the
// model must equal a serial twin fed the same interleaved batches.
TEST(ParallelApplyStress, ConcurrentDrainWithWorkerLanesStaysConsistent) {
  const Trace& t = small_hp();
  const FarmerConfig cfg;
  ShardedFarmer serial(cfg, t.dict, /*shards=*/4, /*apply_threads=*/1);
  ShardedFarmer lanes(cfg, t.dict, /*shards=*/4, /*apply_threads=*/4);
  ASSERT_EQ(lanes.apply_thread_count(), 4u);

  constexpr std::size_t kProducers = 4;
  std::vector<std::vector<TraceRecord>> parts(kProducers);
  for (const TraceRecord& r : t.records)
    parts[static_cast<std::size_t>(r.process.value()) % kProducers]
        .push_back(r);

  Rng rng(2100);
  constexpr std::size_t kChunk = 32;
  std::vector<std::size_t> next(kProducers, 0);
  std::uint64_t applied = 0;
  std::uint64_t batches = 0;
  for (bool more = true; more;) {
    more = false;
    for (std::size_t p = 0; p < kProducers; ++p) {
      const std::size_t n = std::min(kChunk, parts[p].size() - next[p]);
      if (n == 0) continue;
      more = true;
      const std::span<const TraceRecord> chunk(parts[p].data() + next[p], n);
      serial.observe_batch(chunk);
      lanes.observe_batch(chunk);
      next[p] += n;
      applied += n;
      ++batches;
      ASSERT_EQ(lanes.stats().requests, applied);
      for (int q = 0; q < 4; ++q) {
        const FileId f(
            static_cast<std::uint32_t>(rng.next_below(t.file_count())));
        const CorrelatorView snap = lanes.snapshot(f);
        ASSERT_LE(snap.size(), cfg.correlator_capacity);
        for (std::size_t i = 0; i < snap.size(); ++i) {
          EXPECT_NE(snap[i].file, f) << "self-correlation";
          if (i > 0) {
            EXPECT_GE(snap[i - 1].degree, snap[i].degree)
                << "snapshot not sorted";
          }
        }
      }
    }
  }

  const MinerStats s = lanes.stats();
  EXPECT_EQ(s.requests, t.records.size());
  EXPECT_EQ(s.apply_batches, batches);
  EXPECT_EQ(s.apply_parallel_records, t.records.size());
  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    const FileId id(f);
    ASSERT_EQ(serial.access_count(id), lanes.access_count(id))
        << "file " << f;
    const CorrelatorView a = serial.snapshot(id);
    const CorrelatorView b = lanes.snapshot(id);
    ASSERT_EQ(a.size(), b.size()) << "file " << f;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].file, b[i].file) << "file " << f << " slot " << i;
      EXPECT_EQ(a[i].degree, b[i].degree) << "file " << f << " slot " << i;
    }
  }
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
