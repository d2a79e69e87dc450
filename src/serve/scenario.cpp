#include "serve/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "trace/generator.hpp"

namespace farmer {

std::string ScenarioSpec::validate() const {
  std::string errs;
  const auto fail = [&errs](const std::string& msg) {
    if (!errs.empty()) errs += "; ";
    errs += msg;
  };
  if (tenants.empty()) fail("tenants must name at least one workload");
  if (!(scale > 0.0) || scale > 1.0) fail("scale must be in (0, 1]");
  if (!(time_scale > 0.0)) fail("time_scale must be positive");
  if (windows == 0 || windows > 1024) fail("windows must be in [1, 1024]");
  if (diurnal_amplitude < 0.0 || diurnal_amplitude >= 1.0)
    fail("diurnal_amplitude must be in [0, 1)");
  if (!(flash_fraction > 0.0) || flash_fraction >= 1.0)
    fail("flash_fraction must be in (0, 1)");
  if (!(flash_squeeze > 0.0) || flash_squeeze >= 1.0)
    fail("flash_squeeze must be in (0, 1)");
  if (pretrain_fraction < 0.0 || pretrain_fraction > 0.9)
    fail("pretrain_fraction must be in [0, 0.9]");
  if (churn_fraction < 0.0 || churn_fraction > 1.0)
    fail("churn_fraction must be in [0, 1]");
  if (churn_events > 0 && churn_fraction == 0.0)
    fail("churn_events without churn_fraction invalidates nothing");
  if (shape == LoadShape::kTenantShift && tenants.size() < 2)
    fail("tenant_shift needs at least two tenants");
  if (warm_start && pretrain_fraction == 0.0)
    fail("warm_start needs pretrain_fraction > 0");
  if (disk_servers == 0) fail("disk_servers must be at least 1");
  return errs;
}

namespace {

using Registry = std::map<std::string, ScenarioSpec, std::less<>>;

ScenarioSpec builtin(std::string name, std::string description) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.description = std::move(description);
  return s;
}

const Registry& registry() {
  static const Registry reg = [] {
    Registry r;
    const auto put = [&r](ScenarioSpec s) { r.emplace(s.name, std::move(s)); };
    {
      ScenarioSpec s = builtin(
          "steady", "single INS tenant at the generator's native rate");
      put(std::move(s));
    }
    {
      ScenarioSpec s = builtin(
          "diurnal", "INS under a sinusoidal day cycle: 5x peak over trough");
      s.shape = LoadShape::kDiurnal;
      put(std::move(s));
    }
    {
      ScenarioSpec s = builtin(
          "flash_crowd",
          "RES with a quarter of all requests landing in 5% of the run");
      s.tenants = {TraceKind::kRES};
      s.shape = LoadShape::kFlashCrowd;
      put(std::move(s));
    }
    {
      ScenarioSpec s = builtin(
          "tenant_shift",
          "two-tenant mix rotating from INS-dominated to RES-dominated");
      s.tenants = {TraceKind::kINS, TraceKind::kRES};
      s.shape = LoadShape::kTenantShift;
      put(std::move(s));
    }
    {
      ScenarioSpec s = builtin(
          "churn",
          "HP with 20% of the file population invalidated six times");
      s.tenants = {TraceKind::kHP};
      s.churn_events = 6;
      s.churn_fraction = 0.2;
      put(std::move(s));
    }
    {
      ScenarioSpec s = builtin(
          "cold_start",
          "serve the last half of INS with a model that saw none of it");
      s.pretrain_fraction = 0.5;
      put(std::move(s));
    }
    {
      ScenarioSpec s = builtin(
          "warm_start",
          "same served half as cold_start, model checkpoint-restored from "
          "the first half");
      s.pretrain_fraction = 0.5;
      s.warm_start = true;
      put(std::move(s));
    }
    {
      ScenarioSpec s = builtin(
          "smoke", "tiny LLNL run for CI loops and quick sanity checks");
      s.tenants = {TraceKind::kLLNL};
      s.scale = 0.05;
      s.windows = 6;
      put(std::move(s));
    }
    return r;
  }();
  return reg;
}

/// Monotone warp of a normalised arrival position u in [0, 1]. The arrival
/// *density* at warped position w(u) is proportional to 1/w'(u), so a flat
/// stretch of w concentrates requests and a steep stretch thins them.
double warp(const ScenarioSpec& spec, double u, std::uint32_t tenant) {
  switch (spec.shape) {
    case LoadShape::kSteady:
      return u;
    case LoadShape::kDiurnal: {
      // w' = 1 + A cos(2πu): steep (sparse) at the edges, flat (dense)
      // mid-run — one day cycle peaking at the middle of the trace.
      const double a = spec.diurnal_amplitude;
      constexpr double kTwoPi = 2.0 * std::numbers::pi;
      return u + a / kTwoPi * std::sin(kTwoPi * u);
    }
    case LoadShape::kFlashCrowd: {
      // The middle `flash_fraction` of requests (by position) land inside
      // `flash_squeeze` of the span; the outer segments stretch linearly
      // over the remaining time. Piecewise linear, strictly increasing.
      const double a = 0.5 - spec.flash_fraction / 2.0;
      const double b = 0.5 + spec.flash_fraction / 2.0;
      const double lo = 0.5 - spec.flash_squeeze / 2.0;
      const double hi = 0.5 + spec.flash_squeeze / 2.0;
      if (u < a) return u * (lo / a);
      if (u <= b) return lo + (u - a) * ((hi - lo) / (b - a));
      return hi + (u - b) * ((1.0 - hi) / (1.0 - b));
    }
    case LoadShape::kTenantShift:
      // Even tenants front-load (w' = 2u: dense early, draining), odd
      // tenants back-load (mirror image, ramping) — the serving mix
      // rotates mid-run while each tenant's internal order is untouched.
      return tenant % 2 == 0 ? u * u : 1.0 - (1.0 - u) * (1.0 - u);
  }
  return u;
}

}  // namespace

std::vector<std::string> registered_scenarios() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, spec] : registry()) names.push_back(name);
  return names;
}

ScenarioSpec scenario_spec(std::string_view name) {
  const Registry& reg = registry();
  if (const auto it = reg.find(name); it != reg.end()) return it->second;
  std::string msg = "unknown scenario \"";
  msg += name;
  msg += "\"; registered:";
  for (const auto& [known, spec] : reg) msg += " " + known;
  throw std::invalid_argument(msg);
}

ScenarioWorkload build_workload(const ScenarioSpec& spec) {
  if (const std::string err = spec.validate(); !err.empty())
    throw std::invalid_argument("scenario \"" + spec.name + "\": " + err);

  MultiTenantTrace mt =
      make_multi_tenant_trace(spec.tenants, spec.seed, spec.scale);
  ScenarioWorkload wl;
  wl.trace = std::move(mt.trace);
  wl.file_begin = std::move(mt.file_begin);

  auto& recs = wl.trace.records;
  if (!recs.empty() && spec.shape != LoadShape::kSteady) {
    const SimTime t0 = recs.front().timestamp;
    const double span =
        static_cast<double>(recs.back().timestamp - t0);
    if (span > 0.0) {
      for (TraceRecord& r : recs) {
        const double u = static_cast<double>(r.timestamp - t0) / span;
        const double w = warp(spec, u, mt.tenant_of(r.file));
        r.timestamp = t0 + static_cast<SimTime>(std::llround(w * span));
      }
      // The warp is monotone per tenant but tenants interleave; a stable
      // sort restores global time order while preserving the original
      // relative order of simultaneous records — bit-reproducible.
      std::stable_sort(recs.begin(), recs.end(),
                       [](const TraceRecord& a, const TraceRecord& b) {
                         return a.timestamp < b.timestamp;
                       });
    }
  }

  wl.pretrain_records = std::min(
      recs.size(),
      static_cast<std::size_t>(
          spec.pretrain_fraction * static_cast<double>(recs.size()) + 0.5));

  if (spec.churn_events > 0 && wl.pretrain_records < recs.size()) {
    const std::size_t files = wl.trace.file_count();
    const auto count = static_cast<std::size_t>(
        std::max(1.0, spec.churn_fraction * static_cast<double>(files)));
    const SimTime ts0 = recs[wl.pretrain_records].timestamp;
    const double span = static_cast<double>(recs.back().timestamp - ts0);
    for (std::size_t k = 0; k < spec.churn_events; ++k) {
      ChurnEvent ev;
      ev.at = ts0 + static_cast<SimTime>(std::llround(
                        span * static_cast<double>(k + 1) /
                        static_cast<double>(spec.churn_events + 1)));
      // Rotate through the population so successive events hit different
      // (deterministic) file ranges.
      ev.file_lo = files ? static_cast<std::uint32_t>((k * count) % files)
                         : 0;
      ev.file_hi = static_cast<std::uint32_t>(
          std::min(files, static_cast<std::size_t>(ev.file_lo) + count));
      wl.churn.push_back(ev);
    }
  }
  return wl;
}

}  // namespace farmer
