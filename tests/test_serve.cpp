// Tests for the closed-loop serving harness (src/serve/) and the runtime
// API surface that feeds it: scenario registry + validation, bit-identical
// determinism of scenario runs, the WindowStats field contract,
// cold-start-vs-checkpoint-restore differential, the PredictorFactory's
// validation errors, RuntimeConfig's typed ConfigError, and the honest
// footprint sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/correlation_miner.hpp"
#include "api/predictor_factory.hpp"
#include "api/runtime_config.hpp"
#include "prefetch/fpa.hpp"
#include "serve/harness.hpp"
#include "serve/scenario.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

/// Small, fast spec shared by most serving tests: one tenant, tiny scale,
/// few windows. Derived from the registered "steady" scenario so the tests
/// exercise the same path as `bench_serving`.
ScenarioSpec tiny_spec(const std::string& base = "steady") {
  ScenarioSpec spec = scenario_spec(base);
  spec.scale = 0.04;
  spec.windows = 5;
  return spec;
}

FarmerConfig cfg_for(const Trace& trace) {
  FarmerConfig cfg;
  cfg.attributes = trace.has_paths ? AttributeMask::all_with_path()
                                   : AttributeMask::all_with_fileid();
  return cfg;
}

// ---------------------------------------------------------------- scenarios

TEST(ScenarioRegistry, BuiltInsRegistered) {
  const std::vector<std::string> names = registered_scenarios();
  for (const char* want :
       {"steady", "diurnal", "flash_crowd", "tenant_shift", "churn",
        "cold_start", "warm_start", "smoke"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "missing built-in scenario " << want;
    const ScenarioSpec spec = scenario_spec(want);
    EXPECT_EQ(spec.name, want);
    EXPECT_TRUE(spec.validate().empty()) << want << ": " << spec.validate();
    EXPECT_FALSE(spec.description.empty());
  }
}

TEST(ScenarioRegistry, UnknownNameListsRegistered) {
  try {
    (void)scenario_spec("no_such_scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_scenario"), std::string::npos);
    EXPECT_NE(msg.find("steady"), std::string::npos)
        << "diagnostic should list registered scenarios: " << msg;
  }
}

TEST(ScenarioRegistry, ValidateCatchesBadFields) {
  ScenarioSpec spec = tiny_spec();
  spec.scale = 0.0;
  EXPECT_NE(spec.validate().find("scale"), std::string::npos);

  spec = tiny_spec();
  spec.windows = 0;
  EXPECT_FALSE(spec.validate().empty());

  spec = tiny_spec();
  spec.pretrain_fraction = 0.95;
  EXPECT_FALSE(spec.validate().empty());

  spec = tiny_spec();
  spec.warm_start = true;  // warm start needs history to pretrain on
  EXPECT_NE(spec.validate().find("warm_start"), std::string::npos);

  spec = tiny_spec();
  spec.churn_events = 3;  // churn events without a churn fraction
  EXPECT_FALSE(spec.validate().empty());

  spec = tiny_spec();
  spec.shape = LoadShape::kTenantShift;  // needs >= 2 tenants
  spec.tenants = {TraceKind::kINS};
  EXPECT_FALSE(spec.validate().empty());

  spec = tiny_spec();
  spec.disk_servers = 0;
  EXPECT_NE(spec.validate().find("disk_servers"), std::string::npos);
  // serve() takes a caller-built workload, so it checks the spec itself.
  NoopPredictor none;
  EXPECT_THROW((void)serve(spec, ScenarioWorkload{}, none),
               std::invalid_argument);

  // Multiple violations are all reported, "; "-joined.
  spec = tiny_spec();
  spec.scale = -1.0;
  spec.windows = 0;
  EXPECT_NE(spec.validate().find("; "), std::string::npos);

  EXPECT_THROW((void)build_workload(spec), std::invalid_argument);
}

TEST(ScenarioWorkload, WarpsPreserveContentAndOrder) {
  for (const char* name : {"steady", "diurnal", "flash_crowd"}) {
    ScenarioSpec spec = tiny_spec(name);
    const ScenarioWorkload wl = build_workload(spec);
    ASSERT_FALSE(wl.trace.records.empty()) << name;
    // Timestamps are non-decreasing after the warp + re-sort.
    for (std::size_t i = 1; i < wl.trace.records.size(); ++i)
      ASSERT_GE(wl.trace.records[i].timestamp,
                wl.trace.records[i - 1].timestamp)
          << name << " record " << i;
    // The warp moves time, not content: same multiset of files as the
    // unwarped generation at the same (tenants, seed, scale).
    ScenarioSpec flat = spec;
    flat.shape = LoadShape::kSteady;
    const ScenarioWorkload base = build_workload(flat);
    ASSERT_EQ(wl.trace.records.size(), base.trace.records.size());
    std::vector<std::uint32_t> a, b;
    for (const auto& r : wl.trace.records) a.push_back(r.file.value());
    for (const auto& r : base.trace.records) b.push_back(r.file.value());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << name << ": warp changed request content";
  }
}

TEST(ScenarioWorkload, ChurnPlanCoversServingSpan) {
  const ScenarioSpec spec = scenario_spec("churn");
  ScenarioSpec small = spec;
  small.scale = 0.04;
  const ScenarioWorkload wl = build_workload(small);
  ASSERT_EQ(wl.churn.size(), small.churn_events);
  const std::uint32_t files =
      static_cast<std::uint32_t>(wl.trace.file_count());
  SimTime prev = 0;
  for (const ChurnEvent& ev : wl.churn) {
    EXPECT_GT(ev.at, prev);  // strictly increasing, evenly spaced
    prev = ev.at;
    EXPECT_LT(ev.file_lo, ev.file_hi);
    EXPECT_LE(ev.file_hi, files);
  }
}

// ------------------------------------------------------------- determinism

void expect_windows_identical(const std::vector<WindowStats>& a,
                              const std::vector<WindowStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].begin_us, b[i].begin_us);
    EXPECT_EQ(a[i].end_us, b[i].end_us);
    EXPECT_EQ(a[i].demand_requests, b[i].demand_requests);
    EXPECT_EQ(a[i].demand_hits, b[i].demand_hits);
    EXPECT_EQ(a[i].prefetch_inserted, b[i].prefetch_inserted);
    EXPECT_EQ(a[i].prefetch_used, b[i].prefetch_used);
    EXPECT_EQ(a[i].prefetch_evicted_unused, b[i].prefetch_evicted_unused);
    EXPECT_EQ(a[i].invalidations, b[i].invalidations);
    EXPECT_EQ(a[i].responses, b[i].responses);
    EXPECT_EQ(a[i].mean_response_us, b[i].mean_response_us);
    EXPECT_EQ(a[i].p50_response_us, b[i].p50_response_us);
    EXPECT_EQ(a[i].p95_response_us, b[i].p95_response_us);
    EXPECT_EQ(a[i].p99_response_us, b[i].p99_response_us);
    EXPECT_EQ(a[i].model_footprint_bytes, b[i].model_footprint_bytes);
  }
}

TEST(ServingDeterminism, SameSpecSameSeedBitIdentical) {
  for (const char* name : {"steady", "flash_crowd", "churn"}) {
    ScenarioSpec spec = scenario_spec(name);
    spec.scale = 0.04;
    spec.windows = 4;
    const ServingResult r1 = run_scenario(spec, "fpa");
    const ServingResult r2 = run_scenario(spec, "fpa");
    SCOPED_TRACE(name);
    expect_windows_identical(r1.windows, r2.windows);
    EXPECT_EQ(r1.requests, r2.requests);
    EXPECT_EQ(r1.sim_duration, r2.sim_duration);
    EXPECT_EQ(r1.cache.demand.numerator(), r2.cache.demand.numerator());
    EXPECT_EQ(r1.model_footprint_bytes, r2.model_footprint_bytes);
  }
}

TEST(ServingDeterminism, SeedChangesWorkload) {
  ScenarioSpec spec = tiny_spec();
  const ServingResult r1 = run_scenario(spec, "fpa");
  spec.seed += 1;
  const ServingResult r2 = run_scenario(spec, "fpa");
  // Different seed, different trace: at minimum the totals move.
  EXPECT_TRUE(r1.requests != r2.requests ||
              r1.cache.demand.numerator() != r2.cache.demand.numerator() ||
              r1.sim_duration != r2.sim_duration);
}

// ------------------------------------------------------- fetch gate

/// Serves `scenario` through FPA over each backend twice: once
/// through FPA's residency-gated predict_fetchable(), once through a
/// forwarder that overrides only predict(), so the MDS gets the ungated
/// reference. Every observable must match, and the gated run must skip
/// some (not all) of FPA's evidence passes. The third leg is a
/// sequence-only model: the paper's p = 0 reduction to
/// Nexus, with no validity threshold. Scale 0.08, not tiny_spec's 0.04: at
/// 0.04 "steady"'s cache holds the whole working set, so no candidate is
/// ever fetchable and the comparison would never reach the ranking.
void expect_gate_exact(const char* scenario) {
  ScenarioSpec spec = scenario_spec(scenario);
  spec.scale = 0.08;
  spec.windows = 4;
  const ScenarioWorkload wl = build_workload(spec);
  const FarmerConfig cfg = cfg_for(wl.trace);
  FarmerConfig sequence_only = cfg;
  sequence_only.p = 0.0;
  sequence_only.max_strength = 0.0;
  const std::pair<const char*, FarmerConfig> legs[] = {
      {"farmer", cfg}, {"sharded", cfg}, {"farmer", sequence_only}};
  for (const auto& [backend, leg_cfg] : legs) {
    SCOPED_TRACE(std::string(scenario) + " over " + backend +
                 " p=" + std::to_string(leg_cfg.p));
    std::uint64_t gated_calls = 0, ungated_calls = 0, gated_snapshots = 0;
    FpaPredictor gated(std::make_unique<testing::EvidenceCountingMiner>(
        make_miner(backend, leg_cfg, wl.trace.dict), gated_calls,
        &gated_snapshots));
    testing::PredictOnlyForwarder ungated(std::make_unique<FpaPredictor>(
        std::make_unique<testing::EvidenceCountingMiner>(
            make_miner(backend, leg_cfg, wl.trace.dict), ungated_calls)));
    const ServingResult g = serve(spec, wl, gated);
    const ServingResult u = serve(spec, wl, ungated);
    expect_windows_identical(g.windows, u.windows);
    EXPECT_EQ(g.requests, u.requests);
    EXPECT_EQ(g.cache.demand.numerator(), u.cache.demand.numerator());
    EXPECT_EQ(g.cache.demand.denominator(), u.cache.demand.denominator());
    EXPECT_EQ(g.cache.prefetch_inserted, u.cache.prefetch_inserted);
    EXPECT_EQ(g.cache.prefetch_used, u.cache.prefetch_used);
    EXPECT_EQ(g.cache.prefetch_evicted_unused,
              u.cache.prefetch_evicted_unused);
    EXPECT_EQ(g.cache.evictions, u.cache.evictions);
    EXPECT_EQ(g.prefetch_batches, u.prefetch_batches);
    EXPECT_EQ(g.duplicate_suppressed, u.duplicate_suppressed);
    EXPECT_EQ(g.sim_duration, u.sim_duration);
    EXPECT_EQ(g.response.mean(), u.response.mean());
    EXPECT_EQ(g.response.p99(), u.response.p99());
    EXPECT_GT(g.prefetch_batches, 0u);
    EXPECT_GT(gated_calls, 0u);
    EXPECT_LT(gated_calls, ungated_calls)
        << "the MDS no longer gates FPA's evidence pass";
    // any_listed() answers first, so FPA takes a snapshot (the sharded
    // merge) only on requests where some Correlator is fetchable.
    EXPECT_LT(gated_snapshots, g.requests)
        << "FPA no longer asks any_listed() before snapshot()";
  }
}

TEST(ServingFetchGate, SteadyMatchesUngated) { expect_gate_exact("steady"); }

TEST(ServingFetchGate, FlashCrowdMatchesUngated) {
  expect_gate_exact("flash_crowd");
}

TEST(ServingFetchGate, ChurnMatchesUngated) { expect_gate_exact("churn"); }

// ---------------------------------------------------- WindowStats contract

TEST(ServingWindowContract, CountersSumToRunTotals) {
  for (const char* name : {"steady", "churn", "flash_crowd"}) {
    ScenarioSpec spec = scenario_spec(name);
    spec.scale = 0.04;
    spec.windows = 6;
    const ServingResult res = run_scenario(spec, "fpa");
    SCOPED_TRACE(name);
    ASSERT_EQ(res.windows.size(), spec.windows);

    std::uint64_t demand = 0, hits = 0, inserted = 0, used = 0, evicted = 0,
                  responses = 0, invalidations = 0;
    for (const WindowStats& w : res.windows) {
      demand += w.demand_requests;
      hits += w.demand_hits;
      inserted += w.prefetch_inserted;
      used += w.prefetch_used;
      evicted += w.prefetch_evicted_unused;
      responses += w.responses;
      invalidations += w.invalidations;
    }
    EXPECT_EQ(demand, res.cache.demand.denominator());
    EXPECT_EQ(demand, res.requests);
    EXPECT_EQ(hits, res.cache.demand.numerator());
    EXPECT_EQ(inserted, res.cache.prefetch_inserted);
    EXPECT_EQ(used, res.cache.prefetch_used);
    EXPECT_EQ(evicted, res.cache.prefetch_evicted_unused);
    EXPECT_EQ(responses, res.response.count());
    EXPECT_EQ(invalidations, res.invalidations);
  }
}

TEST(ServingWindowContract, WindowsTileTheRun) {
  ScenarioSpec spec = tiny_spec();
  spec.windows = 7;
  const ServingResult res = run_scenario(spec, "fpa");
  ASSERT_EQ(res.windows.size(), 7u);
  for (std::size_t i = 0; i < res.windows.size(); ++i) {
    EXPECT_EQ(res.windows[i].index, i);
    if (i > 0) {
      EXPECT_EQ(res.windows[i].begin_us, res.windows[i - 1].end_us);
    }
    EXPECT_GE(res.windows[i].end_us, res.windows[i].begin_us);
  }
  // The last window closes at the actual end of simulated time, covering
  // completions that trail the final arrival.
  EXPECT_EQ(res.windows.back().end_us, res.sim_duration);
}

TEST(ServingWindowContract, ChurnInvalidationsLandInWindows) {
  ScenarioSpec spec = scenario_spec("churn");
  spec.scale = 0.04;
  spec.windows = 6;
  const ServingResult res = run_scenario(spec, "fpa");
  EXPECT_GT(res.invalidations, 0u);
  std::size_t windows_with_churn = 0;
  for (const WindowStats& w : res.windows)
    if (w.invalidations > 0) ++windows_with_churn;
  // 6 evenly spaced events over 6 windows: churn shows up spread over the
  // run, not lumped into one window.
  EXPECT_GE(windows_with_churn, 2u);
}

TEST(ServingWindowContract, GaugesSampledPerWindow) {
  ScenarioSpec spec = tiny_spec();
  const ServingResult res = run_scenario(spec, "fpa");
  // "fpa" on the default serial backend: footprint grows with the model and
  // is sampled at every close.
  for (const WindowStats& w : res.windows)
    EXPECT_GT(w.model_footprint_bytes, 0u);
  EXPECT_GE(res.windows.back().model_footprint_bytes,
            res.windows.front().model_footprint_bytes);
}

// ------------------------------------------------------- cold vs warm start

TEST(ServingWarmStart, RestoredModelRampsEarlier) {
  // Small explicit cache so the hit ratio reflects the model, not a cache
  // big enough to hold the whole population (which masks the differential).
  ScenarioSpec cold = scenario_spec("cold_start");
  cold.scale = 0.06;
  cold.windows = 6;
  cold.cache_capacity = 64;
  ScenarioSpec warm = scenario_spec("warm_start");
  warm.scale = cold.scale;
  warm.windows = cold.windows;
  warm.cache_capacity = cold.cache_capacity;
  ASSERT_EQ(cold.pretrain_fraction, warm.pretrain_fraction)
      << "cold/warm built-ins must serve the same suffix";

  const ServingResult rc = run_scenario(cold, "fpa");
  const ServingResult rw = run_scenario(warm, "fpa");
  ASSERT_EQ(rc.requests, rw.requests) << "same served suffix";

  // The default backend ("farmer") persists, so warm start goes through a
  // real save()/load() checkpoint round-trip.
  EXPECT_FALSE(rc.checkpoint_restored);
  EXPECT_TRUE(rw.checkpoint_restored);

  // Strictly earlier ramp: over the first half of the run the restored
  // model prefetches usefully from the first request; the cold model is
  // still learning.
  const std::size_t half = rc.windows.size() / 2;
  std::uint64_t cold_hits = 0, cold_reqs = 0, warm_hits = 0, warm_reqs = 0;
  std::uint64_t warm_used = 0, cold_used = 0;
  for (std::size_t i = 0; i < half; ++i) {
    cold_hits += rc.windows[i].demand_hits;
    cold_reqs += rc.windows[i].demand_requests;
    warm_hits += rw.windows[i].demand_hits;
    warm_reqs += rw.windows[i].demand_requests;
    cold_used += rc.windows[i].prefetch_used;
    warm_used += rw.windows[i].prefetch_used;
  }
  ASSERT_GT(cold_reqs, 0u);
  ASSERT_GT(warm_reqs, 0u);
  const double cold_ramp =
      static_cast<double>(cold_hits) / static_cast<double>(cold_reqs);
  const double warm_ramp =
      static_cast<double>(warm_hits) / static_cast<double>(warm_reqs);
  EXPECT_GT(warm_ramp, cold_ramp)
      << "restored model should hit earlier (warm " << warm_ramp
      << " vs cold " << cold_ramp << ")";
  EXPECT_GT(warm_used, cold_used);
}

TEST(ServingWarmStart, NonPersistentBackendFallsBackWarm) {
  // "nexus" has no mining backend at all, so there is nothing to
  // checkpoint: the harness keeps the pretrained instance in memory and
  // reports checkpoint_restored = false — but the model is still warm.
  ScenarioSpec warm = scenario_spec("warm_start");
  warm.scale = 0.04;
  warm.windows = 4;
  const ServingResult res = run_scenario(warm, "nexus");
  EXPECT_FALSE(res.checkpoint_restored);
  EXPECT_GT(res.cache.prefetch_used, 0u) << "pretrained model never fired";
}

TEST(ServingWarmStart, PersistDirRestoresOnceThenRefusesAFilledDirectory) {
  ScenarioSpec warm = scenario_spec("warm_start");
  warm.scale = 0.04;
  warm.windows = 4;
  PredictorOptions opts;
  opts.miner.persist_dir = ::testing::TempDir() + "serve_warm_persist";
  std::filesystem::remove_all(opts.miner.persist_dir);
  EXPECT_TRUE(run_scenario(warm, "fpa", opts).checkpoint_restored);
  // The serving miner of a second run recovers the first run's model, so
  // the warm start's load() must refuse it, not serve something else.
  EXPECT_THROW((void)run_scenario(warm, "fpa", opts), std::logic_error);
  std::filesystem::remove_all(opts.miner.persist_dir);
}

// ------------------------------------------------ predictor factory errors

TEST(PredictorFactory, BuildsThePapersContenders) {
  // FPA and its two baselines in the paper's evaluation: Nexus and plain
  // LRU (no prefetching).
  EXPECT_EQ(registered_predictors(),
            (std::vector<std::string>{"fpa", "nexus", "none"}));
}

TEST(PredictorFactoryErrors, UnknownNameListsRegistered) {
  const Trace trace = make_paper_trace(TraceKind::kHP, 7, 0.02);
  try {
    (void)make_predictor("bogus", cfg_for(trace), trace.dict);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    for (const std::string& name : registered_predictors())
      EXPECT_NE(msg.find(name), std::string::npos)
          << "diagnostic should list " << name << ": " << msg;
  }
}

TEST(PredictorFactoryErrors, InvalidOptionsRejected) {
  const Trace trace = make_paper_trace(TraceKind::kHP, 7, 0.02);
  PredictorOptions opts;
  opts.miner_backend = "not_a_backend";
  EXPECT_THROW((void)make_predictor("fpa", cfg_for(trace), trace.dict, opts),
               std::invalid_argument);
}

TEST(PredictorFactoryErrors, UnknownPredictorThroughScenario) {
  EXPECT_THROW((void)run_scenario(tiny_spec(), "bogus"),
               std::invalid_argument);
}

// ------------------------------------------------------- footprint honesty

TEST(PredictorFootprint, EveryFactoryPredictorReportsState) {
  const Trace trace = make_paper_trace(TraceKind::kHP, 7, 0.05);
  const FarmerConfig cfg = cfg_for(trace);
  for (const std::string& name : registered_predictors()) {
    const auto p = make_predictor(name, cfg, trace.dict);
    for (const TraceRecord& r : trace.records) p->observe(r);
    p->flush();
    if (name == "none") {
      EXPECT_EQ(p->footprint_bytes(), 0u);  // genuinely stateless
    } else {
      EXPECT_GT(p->footprint_bytes(), 0u)
          << name << " must report its actual state";
    }
  }
}

// --------------------------------------------------- RuntimeConfig errors

/// Scoped setenv: restores the previous value on destruction so tests do
/// not leak environment into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* var, const char* value) : var_(var) {
    const char* old = std::getenv(var);
    if (old) saved_ = old;
    had_ = old != nullptr;
    ::setenv(var, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(var_.c_str(), saved_.c_str(), 1);
    else
      ::unsetenv(var_.c_str());
  }

 private:
  std::string var_;
  std::string saved_;
  bool had_ = false;
};

TEST(RuntimeConfigTest, DefaultsWithEmptyEnvironment) {
  const RuntimeConfig rc = RuntimeConfig::from_env();
  EXPECT_EQ(rc.miner_backend, "farmer");
  EXPECT_EQ(rc.predictor, "fpa");
  EXPECT_DOUBLE_EQ(rc.bench_scale, 0.25);
  EXPECT_EQ(rc.predictor_options().miner_backend, "farmer");
}

TEST(RuntimeConfigTest, ParsesAndMirrorsIntoPredictorOptions) {
  ScopedEnv e1("FARMER_MINER", "sharded");
  ScopedEnv e2("FARMER_SHARDS", "4");
  ScopedEnv e3("FARMER_PREDICTOR", "nexus");
  const RuntimeConfig rc = RuntimeConfig::from_env();
  EXPECT_EQ(rc.miner_backend, "sharded");
  EXPECT_EQ(rc.miner.shards, 4u);
  EXPECT_EQ(rc.predictor, "nexus");
  // The predictor options carry the miner selection so "fpa" mines on the
  // env-selected backend.
  EXPECT_EQ(rc.predictor_options().miner_backend, "sharded");
  EXPECT_EQ(rc.predictor_options().miner.shards, 4u);
}

TEST(RuntimeConfigTest, TypedErrorNamesVarValueReason) {
  ScopedEnv bad("FARMER_SHARDS", "banana");
  try {
    (void)RuntimeConfig::from_env();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.var(), "FARMER_SHARDS");
    EXPECT_EQ(e.value(), "banana");
    EXPECT_FALSE(e.reason().empty());
    const std::string msg = e.what();
    EXPECT_NE(msg.find("FARMER_SHARDS"), std::string::npos);
    EXPECT_NE(msg.find("banana"), std::string::npos);
  }
}

TEST(RuntimeConfigTest, RejectsZeroAndOutOfRange) {
  {
    ScopedEnv bad("FARMER_SHARDS", "0");
    EXPECT_THROW((void)RuntimeConfig::from_env(), ConfigError);
  }
  {
    ScopedEnv bad("FARMER_BENCH_SCALE", "1.5");
    EXPECT_THROW((void)RuntimeConfig::from_env(), ConfigError);
  }
  {
    ScopedEnv bad("FARMER_BENCH_SCALE", "0");
    EXPECT_THROW((void)RuntimeConfig::from_env(), ConfigError);
  }
  {
    ScopedEnv bad("FARMER_APPLY_THREADS", "99999");
    EXPECT_THROW((void)RuntimeConfig::from_env(), ConfigError);
  }
}

// A misspelt variable, or one a past release read, must not run the
// defaults unnoticed.
TEST(RuntimeConfigTest, UnknownOrRetiredVariableThrows) {
  const std::pair<const char*, const char*> cases[] = {
      {"FARMER_SHRADS", "8"},
      {"FARMER_QUERY_CACHE", "2048"},
      {"FARMER_SCENARIO", "flash_crowd"},
      {"FARMER_SERVE_WINDOWS", "9"},
      {"FARMER_SERVE_CACHE", "4096"},
      {"FARMER_TRACE_DIR", "traces"},
      {"FARMER_TRACE_TENANTS", "4"},
      {"FARMER_TRACE_ROUNDS", "8"}};
  for (const auto& [var, value] : cases) {
    ScopedEnv bad(var, value);
    try {
      (void)RuntimeConfig::from_env();
      ADD_FAILURE() << var << ": expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.var(), var);
      EXPECT_EQ(e.value(), value);
      EXPECT_FALSE(e.reason().empty());
    }
  }
}

}  // namespace
}  // namespace farmer
