// Synthetic trace generation.
//
// The generator reproduces the *structure* of the four studied traces rather
// than their bytes (see DESIGN.md): a namespace of correlated file groups
// owned by users, accessed by process sessions that sweep their group in a
// canonical order with skip/swap jitter and injected noise, all interleaved
// by overlapping session arrivals. LLNL-style profiles instead run parallel
// jobs whose ranks hammer shared input sets and private checkpoint files.
//
// Generation is deterministic for a given (profile, seed): session event
// streams are produced in parallel from split RNG streams and merged with a
// stable order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/profile.hpp"
#include "trace/record.hpp"

namespace farmer {

/// Generates a complete trace. Thread-safe w.r.t. other generator calls.
[[nodiscard]] Trace generate_trace(const WorkloadProfile& profile,
                                   std::uint64_t seed);

/// Convenience: the four paper traces at the default experiment scale.
[[nodiscard]] Trace make_paper_trace(TraceKind kind, std::uint64_t seed,
                                     double scale = 1.0);

/// A merged multi-tenant request stream, as one mining service observing
/// several independent workloads at once would see it.
///
/// Tenant `t`'s files occupy the contiguous FileId range
/// [file_begin[t], file_begin[t+1]); records of all tenants interleave by
/// timestamp. Tenants share *nothing*: users, processes, hosts, jobs,
/// ground-truth groups and every interned token (each tenant's strings are
/// prefixed "t<t>~") are disjoint by construction, so any cross-tenant
/// correlation a miner reports is a mining artifact, not workload signal.
struct MultiTenantTrace {
  Trace trace;
  /// Per-tenant FileId range starts plus one final end marker
  /// (size == tenant_count() + 1, file_begin.front() == 0,
  /// file_begin.back() == trace.file_count()).
  std::vector<std::uint32_t> file_begin;

  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return file_begin.empty() ? 0 : file_begin.size() - 1;
  }
  /// Ground-truth owning tenant of `f` (ids past the last range clamp into
  /// the final tenant).
  [[nodiscard]] std::uint32_t tenant_of(FileId f) const noexcept {
    std::uint32_t t = 0;
    while (t + 2 < file_begin.size() && f.value() >= file_begin[t + 1]) ++t;
    return t;
  }
};

/// Generates one paper trace per entry of `tenants` (seeds split from
/// `seed`) and splices them into a single dictionary and time-interleaved
/// record stream. Deterministic for a given (tenants, seed, scale);
/// `trace.has_paths` is the conjunction over tenants.
[[nodiscard]] MultiTenantTrace make_multi_tenant_trace(
    std::span<const TraceKind> tenants, std::uint64_t seed,
    double scale = 1.0);

/// Parameters for the streamed (out-of-core) multi-tenant generator.
struct StreamedTraceSpec {
  std::vector<TraceKind> tenants;
  std::uint64_t seed = 42;
  double scale = 1.0;
  /// Workload repetitions per tenant. Each round re-generates the tenant's
  /// profile from a split seed and splices it after the previous round on
  /// the time axis, so record volume scales linearly in `rounds` while
  /// generator memory stays bounded by a single round — this is how multi-GB
  /// traces are produced without a multi-GB Trace.
  std::size_t rounds = 1;
};

/// The on-disk result of stream_multi_tenant_trace: one time-ordered v3
/// part file per tenant, all embedding the identical merged dictionary, so
/// merge_trace_streams can interleave them into one stream. With
/// rounds == 1 that merged stream is byte-identical to
/// make_multi_tenant_trace(tenants, seed, scale) written via
/// write_trace_binary — the differential the tests pin down.
struct StreamedMultiTenantTrace {
  std::vector<std::string> part_paths;  ///< one per tenant, merge inputs
  /// Per-tenant FileId range starts plus one final end marker (see
  /// MultiTenantTrace::file_begin).
  std::vector<std::uint32_t> file_begin;
  std::string name;  ///< merged trace name; pass as merge out_name
  bool has_paths = false;
  std::uint64_t records_written = 0;  ///< total across all parts

  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return file_begin.empty() ? 0 : file_begin.size() - 1;
  }
};

/// Streamed counterpart of make_multi_tenant_trace: generates each tenant
/// round by round and appends remapped records straight to a per-tenant
/// TraceWriter under `dir`, holding at most one round's records in memory.
/// All writers stay open until every tenant is spliced, then finish with
/// the shared dictionary. Deterministic for a given (spec, dir); throws
/// std::invalid_argument when spec.tenants is empty or spec.rounds is 0.
StreamedMultiTenantTrace stream_multi_tenant_trace(
    const StreamedTraceSpec& spec, const std::string& dir);

}  // namespace farmer
