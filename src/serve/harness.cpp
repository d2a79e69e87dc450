#include "serve/harness.hpp"

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <stdexcept>
#include <utility>

#include "analysis/experiment.hpp"
#include "api/correlation_miner.hpp"
#include "core/config.hpp"
#include "sim/simulator.hpp"
#include "storage/mds.hpp"

namespace farmer {

ServingResult serve(const ScenarioSpec& spec, const ScenarioWorkload& wl,
                    Predictor& predictor) {
  if (const std::string errs = spec.validate(); !errs.empty())
    throw std::invalid_argument("scenario \"" + spec.name + "\": " + errs);
  ServingResult res;
  res.scenario = spec.name;
  res.predictor = predictor.name();
  res.windows.resize(spec.windows);
  for (std::size_t i = 0; i < res.windows.size(); ++i)
    res.windows[i].index = i;

  const auto& recs = wl.trace.records;
  const std::size_t begin = std::min(wl.pretrain_records, recs.size());
  const std::size_t n = recs.size() - begin;
  if (n == 0) return res;

  Simulator sim;
  MdsConfig mcfg;
  mcfg.cache_capacity = spec.cache_capacity ? spec.cache_capacity
                                            : default_cache_capacity(wl.trace);
  mcfg.prefetch_degree =
      spec.prefetch_degree ? spec.prefetch_degree : kDefaultPrefetchDegree;
  mcfg.disk_servers = spec.disk_servers;
  mcfg.batch_prefetch = spec.batch_prefetch;
  MdsServer mds(sim, mcfg, predictor);

  // Serving time starts at 0 at the first served record; arrivals and churn
  // events share the spec's time_scale.
  const SimTime tb = recs[begin].timestamp;
  const auto scaled = [&](SimTime t) {
    return static_cast<SimTime>(static_cast<double>(t - tb) *
                                spec.time_scale);
  };
  const std::size_t nwin = spec.windows;
  const SimTime span = scaled(recs.back().timestamp);
  // Ceil so the last arrival falls inside window nwin-1; completions past
  // the final boundary clamp into it (WindowStats contract).
  const SimTime window_len =
      std::max<SimTime>(1, (span + static_cast<SimTime>(nwin)) /
                               static_cast<SimTime>(nwin));

  std::vector<LatencyHistogram> whist(nwin);
  std::uint64_t invalidations = 0;

  // Cumulative counters at the previous window close; the window's numbers
  // are diffs against these.
  CacheStats prev_cache;
  std::uint64_t prev_inval = 0;
  const auto close_window = [&](std::size_t i, SimTime end_time) {
    WindowStats& w = res.windows[i];
    w.begin_us = static_cast<SimTime>(i) * window_len;
    w.end_us = end_time;
    const CacheStats& cur = mds.cache().stats();
    w.demand_requests =
        cur.demand.denominator() - prev_cache.demand.denominator();
    w.demand_hits = cur.demand.numerator() - prev_cache.demand.numerator();
    w.prefetch_inserted = cur.prefetch_inserted - prev_cache.prefetch_inserted;
    w.prefetch_used = cur.prefetch_used - prev_cache.prefetch_used;
    w.prefetch_evicted_unused =
        cur.prefetch_evicted_unused - prev_cache.prefetch_evicted_unused;
    w.invalidations = invalidations - prev_inval;
    prev_cache = cur;
    prev_inval = invalidations;
    w.model_footprint_bytes = predictor.footprint_bytes();
  };
  // Interior boundaries are simulation events so the gauges are sampled at
  // the window's close, mid-run; the final window closes after the queue
  // drains (its end is the true run end, covering trailing completions).
  for (std::size_t i = 0; i + 1 < nwin; ++i) {
    const SimTime at = static_cast<SimTime>(i + 1) * window_len;
    sim.schedule_at(at, [&close_window, i, at] { close_window(i, at); });
  }

  for (const ChurnEvent& ev : wl.churn) {
    sim.schedule_at(scaled(ev.at), [&mds, &invalidations, ev] {
      for (std::uint32_t f = ev.file_lo; f < ev.file_hi; ++f)
        mds.invalidate(FileId(f));
      invalidations += ev.file_hi - ev.file_lo;
    });
  }

  // Self-clocking arrival chain: each arrival schedules the next, keeping
  // the event queue O(1) in trace length, and every completion bins its
  // response time into the window containing the completion instant.
  const auto record_response = [&](SimTime rt) {
    res.response.record(static_cast<std::uint64_t>(rt));
    const auto idx = std::min(
        nwin - 1, static_cast<std::size_t>(sim.now() / window_len));
    whist[idx].record(static_cast<std::uint64_t>(rt));
  };
  std::function<void(std::size_t)> issue = [&](std::size_t i) {
    if (i + 1 < recs.size())
      sim.schedule_at(scaled(recs[i + 1].timestamp),
                      [&issue, i] { issue(i + 1); });
    mds.handle_demand(recs[i], record_response);
  };
  sim.schedule_at(0, [&issue, begin] { issue(begin); });

  sim.run();

  close_window(nwin - 1, sim.now());
  for (std::size_t i = 0; i < nwin; ++i) {
    WindowStats& w = res.windows[i];
    const LatencyHistogram& h = whist[i];
    w.responses = h.count();
    w.mean_response_us = h.mean();
    w.p50_response_us = h.p50();
    w.p95_response_us = h.p95();
    w.p99_response_us = h.p99();
  }

  res.cache = mds.cache().stats();
  res.requests = n;
  res.prefetch_batches = mds.prefetch_batches();
  res.duplicate_suppressed = mds.duplicate_suppressed();
  res.invalidations = invalidations;
  res.sim_duration = sim.now();
  res.model_footprint_bytes = predictor.footprint_bytes();
  return res;
}

ServingResult run_scenario(const ScenarioSpec& spec,
                           std::string_view predictor_name,
                           const PredictorOptions& opts) {
  const ScenarioWorkload wl = build_workload(spec);
  FarmerConfig cfg;
  cfg.attributes = wl.trace.has_paths ? AttributeMask::all_with_path()
                                      : AttributeMask::all_with_fileid();
  auto serving = make_predictor(predictor_name, cfg, wl.trace.dict, opts);
  bool restored = false;
  if (spec.warm_start && wl.pretrain_records > 0) {
    // The pretrain model lives only until its checkpoint is loaded, so it
    // gets no persist directory: only the serving miner opens opts' one.
    PredictorOptions pre_opts = opts;
    pre_opts.miner.persist_dir.clear();
    auto pre = make_predictor(predictor_name, cfg, wl.trace.dict, pre_opts);
    for (std::size_t i = 0; i < wl.pretrain_records; ++i)
      pre->observe(wl.trace.records[i]);
    pre->flush();
    CorrelationMiner* warmed = pre->miner();
    CorrelationMiner* fresh = serving->miner();
    if (warmed && fresh) {
      namespace fs = std::filesystem;
      const fs::path dir =
          fs::temp_directory_path() /
          ("farmer-serve-" + spec.name + "-" + std::to_string(spec.seed) +
           "-" + std::to_string(static_cast<long>(::getpid())));
      std::error_code ec;
      try {
        warmed->save(dir.string());
        fresh->load(dir.string());
      } catch (...) {
        fs::remove_all(dir, ec);
        throw;
      }
      fs::remove_all(dir, ec);
      restored = true;
    } else {
      // Self-contained baseline predictor: nothing to checkpoint, carry the
      // pretrained instance into serving directly.
      serving = std::move(pre);
    }
  }
  ServingResult res = serve(spec, wl, *serving);
  res.checkpoint_restored = restored;
  return res;
}

}  // namespace farmer
