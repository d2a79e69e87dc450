// End-to-end integration tests: the paper's qualitative claims must hold on
// the synthetic workloads (shapes, not absolute numbers).
#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "analysis/interfile_prob.hpp"
#include "core/sharded_farmer.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "prefetch/replay.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

/// Small but non-trivial instances of the paper traces (shared per suite to
/// keep test runtime sane).
const Trace& hp_trace() {
  static const Trace t = make_paper_trace(TraceKind::kHP, 1234, 0.15);
  return t;
}
const Trace& ins_trace() {
  static const Trace t = make_paper_trace(TraceKind::kINS, 1234, 0.15);
  return t;
}

ReplayConfig replay_cfg(std::size_t capacity) {
  ReplayConfig cfg;
  cfg.cache_capacity = capacity;
  cfg.prefetch_degree = 4;
  return cfg;
}

FarmerConfig fpa_cfg(bool paths) {
  FarmerConfig cfg;
  cfg.attributes = paths ? AttributeMask::all_with_path()
                         : AttributeMask::all_with_fileid();
  return cfg;
}

TEST(Integration, FpaBeatsLruOnHitRatioHp) {
  const Trace& t = hp_trace();
  const std::size_t cap = default_cache_capacity(t);
  NoopPredictor lru;
  const auto r_lru = replay_trace(t, lru, replay_cfg(cap));
  FpaPredictor fpa(fpa_cfg(true), t.dict);
  const auto r_fpa = replay_trace(t, fpa, replay_cfg(cap));
  EXPECT_GT(r_fpa.hit_ratio(), r_lru.hit_ratio());
}

TEST(Integration, FpaMoreAccurateThanNexusOnHp) {
  const Trace& t = hp_trace();
  const std::size_t cap = default_cache_capacity(t);
  FpaPredictor fpa(fpa_cfg(true), t.dict);
  NexusPredictor nexus;
  const auto r_fpa = replay_trace(t, fpa, replay_cfg(cap));
  const auto r_nexus = replay_trace(t, nexus, replay_cfg(cap));
  // Table 3's shape: FARMER's prefetching accuracy clearly above Nexus's.
  EXPECT_GT(r_fpa.prefetch_accuracy(), r_nexus.prefetch_accuracy() + 0.05);
}

TEST(Integration, FpaAtLeastMatchesNexusHitRatio) {
  const Trace& t = hp_trace();
  const std::size_t cap = default_cache_capacity(t);
  FpaPredictor fpa(fpa_cfg(true), t.dict);
  NexusPredictor nexus;
  const auto r_fpa = replay_trace(t, fpa, replay_cfg(cap));
  const auto r_nexus = replay_trace(t, nexus, replay_cfg(cap));
  EXPECT_GE(r_fpa.hit_ratio(), r_nexus.hit_ratio() - 0.01);
}

TEST(Integration, InsHitRatiosHigherThanHp) {
  // INS (instructional, highly repetitive) produces much higher hit ratios
  // than HP at the experiment cache sizes — the paper's Fig. 3/7 contrast.
  const Trace& ins = ins_trace();
  const Trace& hp = hp_trace();
  NoopPredictor l1, l2;
  const auto r_ins =
      replay_trace(ins, l1, replay_cfg(default_cache_capacity(ins)));
  const auto r_hp =
      replay_trace(hp, l2, replay_cfg(default_cache_capacity(hp)));
  EXPECT_GT(r_ins.hit_ratio(), r_hp.hit_ratio());
}

TEST(Integration, UnfilteredStreamHasLowestInterfileProbability) {
  // Fig. 1's third observation.
  const Trace& t = hp_trace();
  const auto rows =
      interfile_access_probability(t, figure1_combinations(true));
  ASSERT_GE(rows.size(), 3u);
  ASSERT_EQ(rows[0].label, "none");
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_LT(rows[0].probability, rows[i].probability) << rows[i].label;
}

TEST(Integration, MiningRecoversGroundTruthGroups) {
  // Precision check: mined correlator entries should overwhelmingly point
  // at files of the same generator group.
  const Trace& t = hp_trace();
  FpaPredictor fpa(fpa_cfg(true), t.dict);
  for (const auto& r : t.records) fpa.observe(r);
  const auto& model = fpa.model();
  std::uint64_t intra = 0, inter = 0;
  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    const auto g = t.dict->files[f].group;
    if (g == kNoGroup) continue;
    for (const auto& c : model.snapshot(FileId(f))) {
      if (t.dict->files[c.file.value()].group == g)
        ++intra;
      else
        ++inter;
    }
  }
  ASSERT_GT(intra + inter, 0u);
  const double precision =
      static_cast<double>(intra) / static_cast<double>(intra + inter);
  // Chance level is ~1% (group size / namespace size); mined lists must
  // point overwhelmingly inside the true group. The remainder is context-
  // correlated noise (same session touching out-of-set files), which is a
  // genuine correlation the ground-truth labels do not cover.
  EXPECT_GT(precision, 0.7);
}

TEST(Integration, ThresholdShrinksFootprint) {
  // Section 3.3's efficiency claim: filtering keeps correlator state small.
  const Trace& t = hp_trace();
  auto strict_cfg = fpa_cfg(true);
  strict_cfg.max_strength = 0.4;
  auto loose_cfg = fpa_cfg(true);
  loose_cfg.max_strength = 0.0;
  FpaPredictor strict(strict_cfg, t.dict);
  FpaPredictor loose(loose_cfg, t.dict);
  for (const auto& r : t.records) {
    strict.observe(r);
    loose.observe(r);
  }
  std::size_t strict_entries = 0, loose_entries = 0;
  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    strict_entries += strict.model().snapshot(FileId(f)).size();
    loose_entries += loose.model().snapshot(FileId(f)).size();
  }
  EXPECT_LT(strict_entries, loose_entries);
}

TEST(Integration, WeightP07BeatsExtremesOnHp) {
  // Fig. 3's shape: the mixed weight dominates pure-sequence (p=0) and
  // pure-semantic (p=1) at the paper's operating threshold.
  const Trace& t = hp_trace();
  const std::size_t cap = default_cache_capacity(t);
  auto run_with_p = [&](double p) {
    auto cfg = fpa_cfg(true);
    cfg.p = p;
    FpaPredictor fpa(cfg, t.dict);
    return replay_trace(t, fpa, replay_cfg(cap)).hit_ratio();
  };
  const double h0 = run_with_p(0.0);
  const double h07 = run_with_p(0.7);
  const double h1 = run_with_p(1.0);
  EXPECT_GE(h07, h0);
  EXPECT_GE(h07 + 0.02, h1);  // p=1 may tie; p=0.7 must not lose badly
}

TEST(Integration, ShardedMiningKeepsPrecision) {
  const Trace& t = hp_trace();
  ShardedFarmer sharded(fpa_cfg(true), t.dict, 4);
  sharded.observe_batch(t.records);
  std::uint64_t intra = 0, inter = 0;
  for (std::uint32_t f = 0; f < t.file_count(); ++f) {
    const auto g = t.dict->files[f].group;
    if (g == kNoGroup) continue;
    for (const auto& c : sharded.snapshot(FileId(f))) {
      if (t.dict->files[c.file.value()].group == g)
        ++intra;
      else
        ++inter;
    }
  }
  ASSERT_GT(intra + inter, 0u);
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(intra + inter),
            0.7);
}

}  // namespace
}  // namespace farmer
