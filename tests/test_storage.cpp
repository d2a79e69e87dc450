// Tests for the MDS and the DES trace replay through the serving harness.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prefetch/fpa.hpp"
#include "serve/harness.hpp"
#include "storage/mds.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

MdsConfig fast_mds() {
  MdsConfig cfg;
  cfg.cache_capacity = 8;
  cfg.cpu_time = 10;
  cfg.db_fetch_time = 1000;
  cfg.db_fetch_jitter = 0;
  cfg.seq_fetch_time = 100;
  return cfg;
}

// ------------------------------------------------------------------ MDS --

TEST(Mds, HitIsFasterThanMiss) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  mt.access(a);
  mt.access(a);
  Simulator sim;
  NoopPredictor noop;
  MdsServer mds(sim, fast_mds(), noop);
  std::vector<SimTime> rts;
  const auto& recs = mt.records();
  sim.schedule_at(0, [&] {
    mds.handle_demand(recs[0], [&](SimTime rt) { rts.push_back(rt); });
  });
  sim.schedule_at(5000, [&] {
    mds.handle_demand(recs[1], [&](SimTime rt) { rts.push_back(rt); });
  });
  sim.run();
  ASSERT_EQ(rts.size(), 2u);
  EXPECT_EQ(rts[0], 1000 + 10);  // miss: disk + cpu
  EXPECT_EQ(rts[1], 10);         // hit: cpu only
}

TEST(Mds, DuplicateMissesCoalesce) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  mt.access(a);
  mt.access(a);
  Simulator sim;
  NoopPredictor noop;
  MdsServer mds(sim, fast_mds(), noop);
  int responses = 0;
  const auto& recs = mt.records();
  sim.schedule_at(0, [&] {
    mds.handle_demand(recs[0], [&](SimTime) { ++responses; });
    mds.handle_demand(recs[1], [&](SimTime) { ++responses; });
  });
  sim.run();
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(mds.duplicate_suppressed(), 1u);
  // Only one disk fetch happened.
  EXPECT_EQ(mds.disk().completed(), 1u);
}

TEST(Mds, PrefetchLandsInCache) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/h/u/g/a");
  const FileId b = mt.file("b", "/h/u/g/b");
  const FileId c = mt.file("c", "/h/u/g/c");
  // Teach FPA the cycle a->b->c. Capacity 1 means the successor is never
  // resident when predicted, so only a prefetch can produce the hit.
  for (int i = 0; i < 4; ++i) {
    mt.access(a);
    mt.access(b);
    mt.access(c);
  }
  FpaPredictor fpa(FarmerConfig{}, mt.dict());
  Simulator sim;
  auto cfg = fast_mds();
  cfg.cache_capacity = 1;
  MdsServer mds(sim, cfg, fpa);
  const auto& recs = mt.records();
  SimTime t = 0;
  for (const auto& r : recs) {
    sim.schedule_at(t, [&mds, &r] { mds.handle_demand(r, [](SimTime) {}); });
    t += 20000;
  }
  sim.run();
  EXPECT_GT(mds.prefetch_batches(), 0u);
  EXPECT_GT(mds.cache().stats().prefetch_used, 0u);
}

// ----------------------------------------------------------- DES replay --
// Whole-trace DES replay: the trace served through serve() with no pretrain
// and no churn, on the harness's default MDS timings.

ScenarioWorkload whole_trace(Trace t) {
  ScenarioWorkload wl;
  wl.trace = std::move(t);
  return wl;
}

ScenarioSpec replay_spec(std::size_t cache_capacity, double time_scale = 1.0) {
  ScenarioSpec spec;
  spec.name = "replay";
  spec.windows = 1;
  spec.cache_capacity = cache_capacity;
  spec.time_scale = time_scale;
  return spec;
}

TEST(DesReplay, EveryDemandGetsResponse) {
  const ScenarioWorkload wl =
      whole_trace(make_paper_trace(TraceKind::kHP, 3, 0.01));
  NoopPredictor noop;
  const ServingResult res = serve(replay_spec(64), wl, noop);
  EXPECT_EQ(res.response.count(), wl.trace.records.size());
  EXPECT_GT(res.response.mean(), 0.0);
}

TEST(DesReplay, PrefetchingReducesLatencyOnPredictableLoad) {
  MicroTrace mt;
  // A six-file cycle against a two-entry cache: LRU always misses, while
  // accurate prefetching can stream the group ahead of the demands.
  std::vector<FileId> ring;
  for (int i = 0; i < 6; ++i)
    ring.push_back(
        mt.file("f" + std::to_string(i), "/h/u/g/f" + std::to_string(i)));
  for (int rep = 0; rep < 60; ++rep)
    for (const FileId f : ring) mt.access(f);
  const ScenarioWorkload wl = whole_trace(mt.build());
  // time_scale 5 leaves disk idle time for prefetches to run.
  ScenarioSpec spec = replay_spec(/*cache_capacity=*/2, /*time_scale=*/5.0);
  spec.prefetch_degree = 1;  // just-in-time successor; degree > capacity
                             // would evict its own prefetches

  NoopPredictor noop;
  const ServingResult lru = serve(spec, wl, noop);
  FpaPredictor fpa(FarmerConfig{}, mt.dict());
  const ServingResult far = serve(spec, wl, fpa);
  EXPECT_LT(far.response.mean(), lru.response.mean() * 0.8);
}

TEST(DesReplay, TimeScaleCompressesSimulation) {
  const ScenarioWorkload wl =
      whole_trace(make_paper_trace(TraceKind::kINS, 9, 0.01));
  NoopPredictor n1, n2;
  const ServingResult m_slow =
      serve(replay_spec(/*cache_capacity=*/8), wl, n1);
  const ServingResult m_fast =
      serve(replay_spec(8, /*time_scale=*/0.5), wl, n2);
  EXPECT_LT(m_fast.sim_duration, m_slow.sim_duration);
}

}  // namespace
}  // namespace farmer
