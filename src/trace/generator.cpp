#include "trace/generator.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "trace/trace_stream.hpp"

namespace farmer {

namespace {

/// Per-group static data built during namespace construction.
struct GroupInfo {
  std::vector<FileId> files;   ///< members in canonical access order
  TokenId program;             ///< program typically operating on the group
  TokenId dev;                 ///< device/volume the group lives on
  UserId owner;
};

/// One process session to be expanded into an event stream.
struct SessionSpec {
  SimTime arrival = 0;
  std::uint32_t group = kNoGroup;
  UserId user;
  HostId host;
  JobId job;
  TokenId user_token, host_token, pid_token, program_token;
  ProcessId pid;
  std::uint32_t passes = 1;
  std::uint64_t rng_seed = 0;
  // LLNL rank sessions:
  std::uint32_t rank = 0;
  std::vector<FileId> rank_files;   ///< private checkpoint files, one/cycle
  std::vector<FileId> slice_files;  ///< private input slices, job start
  FileId manifest;                  ///< shared per-job manifest
};

/// A session-local event before global interleaving.
struct RawEvent {
  SimTime t;
  FileId file;
  OpType op;
  bool foreign = false;  ///< cross-traffic: emitted under a different pid
};

/// Shared immutable state threaded through the generation helpers.
struct Builder {
  const WorkloadProfile& p;
  TraceDictionary& dict;
  std::vector<GroupInfo> groups;
  std::vector<TokenId> user_tokens, host_tokens, program_tokens, dev_tokens;
  std::vector<HostId> user_home_host;
  std::vector<std::vector<std::uint32_t>> user_affinity;  ///< groups per user
  std::uint64_t next_pid = 1;
};

TokenId tok(Builder& b, const std::string& s) {
  return b.dict.tokens.intern(s);
}

/// Creates one file, returning its dense id.
FileId add_file(Builder& b, Rng& rng, PathId path, TokenId dev,
                std::uint32_t group, bool read_only_bias) {
  const auto id = FileId(static_cast<std::uint32_t>(b.dict.files.size()));
  FileMeta meta;
  meta.path = path;
  meta.dev = dev;
  meta.fid = tok(b, "fid" + std::to_string(id.value()));
  meta.group = group;
  meta.size_bytes = static_cast<std::uint32_t>(std::clamp(
      rng.next_lognormal(b.p.file_size_mu, b.p.file_size_sigma), 512.0,
      64.0 * 1024 * 1024));
  meta.read_only = rng.next_bool(read_only_bias ? b.p.read_only_fraction
                                                : b.p.read_only_fraction * 0.5);
  b.dict.files.push_back(meta);
  return id;
}

PathId make_path(Builder& b, std::initializer_list<std::string> components) {
  SmallVector<TokenId, 8> comps;
  for (const auto& c : components) comps.push_back(tok(b, c));
  return b.dict.add_path(std::move(comps));
}

void build_population(Builder& b, Rng& rng) {
  const auto& p = b.p;
  b.user_tokens.reserve(p.users);
  for (std::uint32_t u = 0; u < p.users; ++u) {
    b.user_tokens.push_back(tok(b, "user" + std::to_string(u)));
    b.user_home_host.push_back(
        HostId(static_cast<std::uint32_t>(rng.next_below(p.hosts))));
  }
  for (std::uint32_t h = 0; h < p.hosts; ++h)
    b.host_tokens.push_back(tok(b, "host" + std::to_string(h)));
  for (std::uint32_t g = 0; g < p.programs; ++g)
    b.program_tokens.push_back(tok(b, "prog" + std::to_string(g)));
  for (std::uint32_t v = 0; v < p.volumes; ++v)
    b.dev_tokens.push_back(tok(b, "dev" + std::to_string(v)));
}

/// Builds the regular (non-job) namespace: `groups` correlated file sets in
/// per-owner project directories plus uncorrelated scratch files.
void build_namespace(Builder& b, Rng& rng) {
  const auto& p = b.p;
  b.groups.resize(p.groups);
  for (std::uint32_t g = 0; g < p.groups; ++g) {
    GroupInfo& gi = b.groups[g];
    const auto owner =
        static_cast<std::uint32_t>(rng.next_below(p.users));
    gi.owner = UserId(owner);
    gi.program = b.program_tokens[rng.next_below(p.programs)];
    gi.dev = b.dev_tokens[rng.next_below(p.volumes)];
    const auto nfiles = static_cast<std::uint32_t>(
        rng.next_in(p.files_per_group_min, p.files_per_group_max));
    const std::string user_name = "user" + std::to_string(owner);
    const std::string proj = "proj" + std::to_string(g);
    for (std::uint32_t i = 0; i < nfiles; ++i) {
      PathId path;
      if (p.has_paths)
        path = make_path(
            b, {"home", user_name, proj, "f" + std::to_string(i) + ".d"});
      gi.files.push_back(add_file(b, rng, path, gi.dev, g, true));
    }
  }
  for (std::uint32_t s = 0; s < p.scratch_files; ++s) {
    PathId path;
    if (p.has_paths) path = make_path(b, {"tmp", "s" + std::to_string(s)});
    (void)add_file(b, rng, path,
                   b.dev_tokens[rng.next_below(p.volumes)], kNoGroup, false);
  }

  // Affinity: each user works on a Zipf-popular subset of groups, so hot
  // groups recur across users and sessions (the recurrence prefetching
  // exploits).
  ZipfTable group_pop(p.groups, p.group_zipf_s);
  b.user_affinity.resize(p.users);
  for (std::uint32_t u = 0; u < p.users; ++u) {
    auto& aff = b.user_affinity[u];
    while (aff.size() < std::min(p.groups_per_user, p.groups)) {
      const auto g = static_cast<std::uint32_t>(group_pop.sample(rng));
      if (std::find(aff.begin(), aff.end(), g) == aff.end())
        aff.push_back(g);
    }
  }
}

/// Expands a regular session into its event stream. Noise events carry
/// `foreign == true` when they model cross-traffic from an unrelated
/// process on the same host (interleaved daemons, other users' jobs) —
/// those get a separate pid/user when records are materialised.
std::vector<RawEvent> expand_session(const Builder& b, const SessionSpec& s) {
  Rng rng(s.rng_seed);
  const auto& p = b.p;
  const auto& members = b.groups[s.group].files;
  std::vector<RawEvent> out;
  out.reserve(members.size() * s.passes + 4);
  SimTime t = s.arrival;
  const auto file_universe = static_cast<std::uint64_t>(b.dict.files.size());

  std::vector<FileId> order(members.begin(), members.end());
  for (std::uint32_t pass = 0; pass < s.passes; ++pass) {
    // Adjacent-swap jitter: sessions mostly follow the canonical order but
    // not perfectly (editors, make -j, shell glob order...).
    for (std::size_t i = 0; i + 1 < order.size(); ++i)
      if (rng.next_bool(p.swap_probability)) std::swap(order[i], order[i + 1]);
    for (FileId f : order) {
      if (rng.next_bool(p.skip_probability)) continue;
      if (rng.next_bool(p.noise_probability)) {
        // Unrelated access interleaved into the stream. Mostly genuine
        // cross-traffic (another process); sometimes the session's own
        // process touching an out-of-set file — the hard case semantic
        // filtering cannot catch.
        t += static_cast<SimTime>(rng.next_exponential(p.mean_think_time_us));
        out.push_back(
            {t,
             FileId(static_cast<std::uint32_t>(rng.next_below(file_universe))),
             OpType::kStat, /*foreign=*/rng.next_bool(0.7)});
      }
      t += static_cast<SimTime>(rng.next_exponential(p.mean_think_time_us));
      out.push_back({t, f, OpType::kOpen, false});
    }
  }
  return out;
}

/// Expands an LLNL rank session: program binary, shared inputs, then
/// checkpoint cycles against the job manifest + the rank's private files.
std::vector<RawEvent> expand_rank_session(const Builder& b,
                                          const SessionSpec& s) {
  Rng rng(s.rng_seed);
  const auto& p = b.p;
  const auto& inputs = b.groups[s.group].files;
  std::vector<RawEvent> out;
  out.reserve(inputs.size() + s.rank_files.size() * 2 + 4);
  SimTime t = s.arrival;
  const double think = p.mean_think_time_us;

  for (FileId f : inputs) {  // startup: read app binary + input decks
    t += static_cast<SimTime>(rng.next_exponential(think));
    out.push_back({t, f, OpType::kOpen});
  }
  for (FileId f : s.slice_files) {  // per-rank restart/input slices
    t += static_cast<SimTime>(rng.next_exponential(think));
    out.push_back({t, f, OpType::kOpen});
  }
  if (s.manifest.valid()) {  // job manifest, statted once per rank
    t += static_cast<SimTime>(rng.next_exponential(think));
    out.push_back({t, s.manifest, OpType::kStat});
  }
  for (std::size_t c = 0; c < s.rank_files.size(); ++c) {
    // Compute phase between checkpoints, then a fresh checkpoint write.
    t += static_cast<SimTime>(rng.next_exponential(think * 40.0));
    out.push_back({t, s.rank_files[c], OpType::kWrite});
  }
  return out;
}

/// Builds the job namespace + rank sessions for the LLNL profile.
void build_jobs(Builder& b, Rng& rng, std::vector<SessionSpec>& sessions) {
  const auto& p = b.p;
  // One input group per application: the binary + input decks every job of
  // that app re-reads. These recur across jobs => minable + prefetchable.
  const std::uint32_t apps = p.programs;
  b.groups.resize(apps);
  // Per-(app, rank) restart/input slices: persistent across re-runs of the
  // same application (ranks re-read their own slice every job).
  std::vector<std::vector<std::vector<FileId>>> app_rank_slices(apps);
  for (std::uint32_t a = 0; a < apps; ++a) {
    GroupInfo& gi = b.groups[a];
    gi.program = b.program_tokens[a];
    gi.dev = b.dev_tokens[a % p.volumes];
    gi.owner = UserId(a % p.users);
    const std::string app = "app" + std::to_string(a);
    for (std::uint32_t i = 0; i < p.shared_inputs_per_app; ++i) {
      PathId path = make_path(
          b, {"scratch", app, "input", "deck" + std::to_string(i)});
      gi.files.push_back(add_file(b, rng, path, gi.dev, a, true));
    }
    app_rank_slices[a].resize(p.ranks_per_job);
    for (std::uint32_t r = 0; r < p.ranks_per_job; ++r) {
      for (std::uint32_t sl = 0; sl < p.slices_per_rank; ++sl) {
        PathId path = make_path(
            b, {"scratch", app,
                "slice_r" + std::to_string(r) + "_" + std::to_string(sl)});
        app_rank_slices[a][r].push_back(
            add_file(b, rng, path, gi.dev, a, true));
      }
    }
  }

  ZipfTable app_pop(apps, 1.0);
  SimTime job_clock = 0;
  const double job_gap_us = 1e6 / std::max(0.05, p.session_arrival_rate);
  for (std::uint32_t j = 0; j < p.jobs; ++j) {
    job_clock += static_cast<SimTime>(rng.next_exponential(job_gap_us));
    const auto a = static_cast<std::uint32_t>(app_pop.sample(rng));
    const auto user =
        static_cast<std::uint32_t>(rng.next_below(p.users));
    const std::string jobname = "job" + std::to_string(j);
    // Shared manifest all ranks stat each cycle.
    const FileId manifest =
        add_file(b, rng,
                 p.has_paths ? make_path(b, {"scratch", jobname, "manifest"})
                             : PathId(),
                 b.groups[a].dev, kNoGroup, false);
    for (std::uint32_t r = 0; r < p.ranks_per_job; ++r) {
      SessionSpec s;
      // Ranks stagger their I/O over the job lifetime (real MPI codes
      // deliberately avoid metadata storms), which stretches the reuse
      // distance of the shared input decks far beyond any MDS cache.
      s.arrival = job_clock + static_cast<SimTime>(r) * 600'000 +
                  static_cast<SimTime>(rng.next_below(200'000));
      s.group = a;
      s.user = UserId(user);
      s.user_token = b.user_tokens[user];
      s.host = HostId(r % p.hosts);
      s.host_token = b.host_tokens[r % p.hosts];
      s.job = JobId(j);
      s.pid = ProcessId(static_cast<std::uint32_t>(b.next_pid));
      s.pid_token = tok(b, "pid" + std::to_string(b.next_pid));
      ++b.next_pid;
      s.program_token = b.program_tokens[a];
      s.rank = r;
      s.manifest = manifest;
      s.slice_files = app_rank_slices[a][r];
      for (std::uint32_t c = 0; c < p.checkpoint_cycles; ++c) {
        PathId path;
        if (p.has_paths)
          path = make_path(b, {"scratch", jobname,
                               "ckpt_r" + std::to_string(r) + "_c" +
                                   std::to_string(c)});
        s.rank_files.push_back(
            add_file(b, rng, path, b.groups[a].dev, kNoGroup, false));
      }
      s.rng_seed = rng.next_u64();
      sessions.push_back(std::move(s));
    }
  }
}

/// Builds regular session specs (INS/RES/HP style).
void build_sessions(Builder& b, Rng& rng, std::vector<SessionSpec>& sessions) {
  const auto& p = b.p;
  SimTime clock = 0;
  const double gap_us = 1e6 / std::max(0.05, p.session_arrival_rate);
  sessions.reserve(p.sessions);
  for (std::uint32_t i = 0; i < p.sessions; ++i) {
    clock += static_cast<SimTime>(rng.next_exponential(gap_us));
    SessionSpec s;
    s.arrival = clock;
    const auto user =
        static_cast<std::uint32_t>(rng.next_below(p.users));
    s.user = UserId(user);
    s.user_token = b.user_tokens[user];
    const auto& aff = b.user_affinity[user];
    s.group = aff[rng.next_below(aff.size())];
    // Users mostly work from their home host.
    const HostId host = rng.next_bool(0.8)
                            ? b.user_home_host[user]
                            : HostId(static_cast<std::uint32_t>(
                                  rng.next_below(p.hosts)));
    s.host = host;
    s.host_token = b.host_tokens[host.value()];
    s.pid = ProcessId(static_cast<std::uint32_t>(b.next_pid));
    s.pid_token = tok(b, "pid" + std::to_string(b.next_pid));
    ++b.next_pid;
    // Sessions usually run the group's usual program.
    s.program_token = rng.next_bool(0.85)
                          ? b.groups[s.group].program
                          : b.program_tokens[rng.next_below(p.programs)];
    s.passes = static_cast<std::uint32_t>(
        rng.next_in(p.passes_min, p.passes_max));
    s.rng_seed = rng.next_u64();
    sessions.push_back(std::move(s));
  }
}

}  // namespace

Trace generate_trace(const WorkloadProfile& profile, std::uint64_t seed) {
  Trace trace;
  trace.name = profile.name;
  trace.kind = profile.kind;
  trace.has_paths = profile.has_paths;
  trace.dict = std::make_shared<TraceDictionary>();

  Builder b{profile, *trace.dict, {}, {}, {}, {}, {}, {}, {}, 1};
  Rng master(seed);

  build_population(b, master);
  std::vector<SessionSpec> sessions;
  const bool job_mode = profile.jobs > 0;
  if (job_mode) {
    build_jobs(b, master, sessions);
  } else {
    build_namespace(b, master);
    build_sessions(b, master, sessions);
  }

  // Expand sessions to event streams in parallel; every session has its own
  // RNG stream so the result is independent of the schedule.
  std::vector<std::vector<RawEvent>> streams(sessions.size());
  parallel_for(sessions.size(), [&](std::size_t i) {
    streams[i] = job_mode ? expand_rank_session(b, sessions[i])
                          : expand_session(b, sessions[i]);
  });

  // Merge with a stable global order: (time, session, in-session index).
  struct Cursor {
    std::uint32_t session;
    std::uint32_t index;
    SimTime t;
  };
  std::size_t total = 0;
  for (const auto& st : streams) total += st.size();
  std::vector<Cursor> cursors;
  cursors.reserve(total);
  for (std::uint32_t si = 0; si < streams.size(); ++si)
    for (std::uint32_t ei = 0; ei < streams[si].size(); ++ei)
      cursors.push_back({si, ei, streams[si][ei].t});
  std::sort(cursors.begin(), cursors.end(), [](const Cursor& a,
                                               const Cursor& c) {
    if (a.t != c.t) return a.t < c.t;
    if (a.session != c.session) return a.session < c.session;
    return a.index < c.index;
  });

  // Cross-traffic identities: a small pool of background daemons/users that
  // own the "foreign" noise events.
  const std::uint32_t kForeignPool = 8;
  std::vector<TokenId> foreign_users, foreign_pids;
  const TokenId foreign_prog = b.dict.tokens.intern("sysd");
  for (std::uint32_t i = 0; i < kForeignPool; ++i) {
    foreign_users.push_back(b.dict.tokens.intern("sys" + std::to_string(i)));
    foreign_pids.push_back(b.dict.tokens.intern("xpid" + std::to_string(i)));
  }

  trace.records.reserve(total);
  for (const Cursor& cur : cursors) {
    const SessionSpec& s = sessions[cur.session];
    const RawEvent& ev = streams[cur.session][cur.index];
    const FileMeta& meta = trace.dict->files[ev.file.value()];
    TraceRecord r;
    r.timestamp = ev.t;
    r.file = ev.file;
    r.user = s.user;
    r.process = s.pid;
    r.host = s.host;
    r.job = s.job;
    r.path = profile.has_paths ? meta.path : PathId();
    r.user_token = s.user_token;
    r.process_token = s.pid_token;
    r.host_token = s.host_token;
    r.dev_token = meta.dev;
    r.fid_token = meta.fid;
    r.program_token = s.program_token;
    r.size_bytes = meta.size_bytes;
    r.op = ev.op;
    if (ev.foreign) {
      const std::uint32_t fi = cur.session % kForeignPool;
      r.user = UserId(0xFFFF0000u + fi);
      r.process = ProcessId(0xFFFF0000u + fi);
      r.user_token = foreign_users[fi];
      r.process_token = foreign_pids[fi];
      r.program_token = foreign_prog;
    }
    trace.records.push_back(r);
  }
  return trace;
}

WorkloadProfile WorkloadProfile::scaled(double f) const {
  WorkloadProfile s = *this;
  auto mul = [f](std::uint32_t v) {
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(static_cast<double>(v) * f));
  };
  s.sessions = mul(s.sessions);
  s.jobs = jobs > 0 ? mul(s.jobs) : 0;
  s.groups = mul(s.groups);
  s.scratch_files = mul(s.scratch_files);
  return s;
}

WorkloadProfile WorkloadProfile::ins() {
  WorkloadProfile p;
  p.name = "INS";
  p.kind = TraceKind::kINS;
  // Twenty undergraduate lab machines: a small population re-running the
  // same coursework => small namespace, heavy recurrence, high
  // predictability. No path info in the published trace (fid + dev only).
  p.users = 60;
  p.hosts = 20;
  p.programs = 8;
  p.volumes = 6;
  p.groups = 40;
  p.files_per_group_min = 6;
  p.files_per_group_max = 14;
  p.scratch_files = 300;
  p.has_paths = false;
  p.group_zipf_s = 1.1;
  p.groups_per_user = 5;
  p.sessions = 2600;
  p.passes_min = 1;
  p.passes_max = 3;
  p.skip_probability = 0.05;
  p.swap_probability = 0.05;
  p.noise_probability = 0.04;
  p.mean_think_time_us = 15'000;
  // Whole lab sections run the same assignment simultaneously: the merged
  // stream interleaves many near-identical sessions, which is what defeats
  // sequence-only prefetchers here.
  p.session_arrival_rate = 60.0;
  return p;
}

WorkloadProfile WorkloadProfile::res() {
  WorkloadProfile p;
  p.name = "RES";
  p.kind = TraceKind::kRES;
  // Thirteen researcher desktops: diverse individual projects, much lower
  // recurrence and more noise than INS. No path info.
  p.users = 30;
  p.hosts = 13;
  p.programs = 20;
  p.volumes = 13;
  p.groups = 900;
  p.files_per_group_min = 3;
  p.files_per_group_max = 12;
  p.scratch_files = 1500;
  p.has_paths = false;
  p.group_zipf_s = 0.7;
  p.groups_per_user = 40;
  p.sessions = 5200;
  p.passes_min = 1;
  p.passes_max = 2;
  p.skip_probability = 0.15;
  p.swap_probability = 0.15;
  p.noise_probability = 0.10;
  p.mean_think_time_us = 25'000;
  // Desktops: at most a handful of users active at once, so the merged MDS
  // stream is only lightly interleaved (sequence-only mining stays
  // competitive here — the paper's smallest FPA-vs-Nexus gap).
  p.session_arrival_rate = 7.0;
  return p;
}

WorkloadProfile WorkloadProfile::hp() {
  WorkloadProfile p;
  p.name = "HP";
  p.kind = TraceKind::kHP;
  // 236-user time-sharing server: large namespace with full path info,
  // moderate recurrence, many concurrent users interleaving.
  p.users = 236;
  p.hosts = 48;
  p.programs = 24;
  p.volumes = 16;
  p.groups = 1200;
  p.files_per_group_min = 4;
  p.files_per_group_max = 16;
  p.scratch_files = 2500;
  p.has_paths = true;
  p.group_zipf_s = 0.85;
  p.groups_per_user = 10;
  p.sessions = 9000;
  p.passes_min = 1;
  p.passes_max = 2;
  p.skip_probability = 0.10;
  p.swap_probability = 0.10;
  p.noise_probability = 0.08;
  p.mean_think_time_us = 20'000;
  p.session_arrival_rate = 30.0;
  return p;
}

WorkloadProfile WorkloadProfile::llnl() {
  WorkloadProfile p;
  p.name = "LLNL";
  p.kind = TraceKind::kLLNL;
  // Parallel scientific cluster: few applications, many ranks per job, huge
  // per-rank checkpoint churn, extreme interleaving. Paths available.
  p.users = 24;
  p.hosts = 64;
  p.programs = 8;  // == applications
  p.volumes = 8;
  p.has_paths = true;
  p.jobs = 220;
  p.ranks_per_job = 32;
  p.shared_inputs_per_app = 12;
  p.checkpoint_cycles = 3;
  p.mean_think_time_us = 2'000;
  p.session_arrival_rate = 1.0;  // jobs per second (several concurrent jobs)
  return p;
}

Trace make_paper_trace(TraceKind kind, std::uint64_t seed, double scale) {
  WorkloadProfile p;
  switch (kind) {
    case TraceKind::kLLNL:
      p = WorkloadProfile::llnl();
      break;
    case TraceKind::kINS:
      p = WorkloadProfile::ins();
      break;
    case TraceKind::kRES:
      p = WorkloadProfile::res();
      break;
    case TraceKind::kHP:
    case TraceKind::kCustom:
      p = WorkloadProfile::hp();
      break;
  }
  if (scale != 1.0) p = p.scaled(scale);
  return generate_trace(p, seed);
}

namespace {

/// Splices one tenant's trace into the merged dictionary/stream. All
/// remapping state is local so tenants cannot alias each other by
/// construction: token ids go through a lazy per-tenant table (strings are
/// re-interned under a "t<t>~" prefix), entity ids (user/process/host/job)
/// through dense maps drawing fresh ids from shared counters, file ids by
/// the contiguous offset the caller records in `file_begin`, and
/// ground-truth groups by a running group offset.
struct TenantSplicer {
  TraceDictionary& dict;
  std::string prefix;  ///< "t<tenant>~", namespaces every re-interned token
  std::vector<TokenId> token_map;
  std::vector<PathId> path_map;
  std::uint32_t file_offset = 0;
  std::uint32_t group_offset = 0;
  std::uint32_t group_max = 0;  ///< highest remapped group id seen + 1
  // Shared dense-id counters, owned by the caller (one per id space).
  std::uint32_t& next_user;
  std::uint32_t& next_process;
  std::uint32_t& next_host;
  std::uint32_t& next_job;
  std::unordered_map<std::uint32_t, std::uint32_t> user_map, process_map,
      host_map, job_map;

  [[nodiscard]] TokenId remap_token(const TraceDictionary& src, TokenId t) {
    if (!t.valid()) return t;
    TokenId& slot = token_map.at(t.value());
    if (!slot.valid())
      slot = dict.tokens.intern(prefix + std::string(src.tokens.resolve(t)));
    return slot;
  }

  [[nodiscard]] static std::uint32_t remap_id(
      std::unordered_map<std::uint32_t, std::uint32_t>& map,
      std::uint32_t& next, std::uint32_t old) {
    const auto [it, inserted] = map.try_emplace(old, next);
    if (inserted) ++next;
    return it->second;
  }

  void splice(const Trace& sub) {
    const TraceDictionary& src = *sub.dict;
    token_map.assign(src.tokens.size(), TokenId());
    path_map.assign(src.paths.size(), PathId());
    file_offset = static_cast<std::uint32_t>(dict.files.size());

    for (std::size_t p = 0; p < src.paths.size(); ++p) {
      SmallVector<TokenId, 8> comps;
      for (TokenId t : src.paths[p]) comps.push_back(remap_token(src, t));
      path_map[p] = dict.add_path(std::move(comps));
    }
    for (const FileMeta& m : src.files) {
      FileMeta out = m;
      out.path = m.path.valid() ? path_map.at(m.path.value()) : PathId();
      out.dev = remap_token(src, m.dev);
      out.fid = remap_token(src, m.fid);
      if (m.group != kNoGroup) {
        out.group = group_offset + m.group;
        group_max = std::max(group_max, out.group + 1);
      }
      dict.files.push_back(out);
    }
  }

  [[nodiscard]] TraceRecord remap_record(const TraceDictionary& src,
                                         TraceRecord r) {
    r.file = FileId(r.file.value() + file_offset);
    if (r.user.valid())
      r.user = UserId(remap_id(user_map, next_user, r.user.value()));
    if (r.process.valid())
      r.process =
          ProcessId(remap_id(process_map, next_process, r.process.value()));
    if (r.host.valid())
      r.host = HostId(remap_id(host_map, next_host, r.host.value()));
    if (r.job.valid())
      r.job = JobId(remap_id(job_map, next_job, r.job.value()));
    r.path = r.path.valid() ? path_map.at(r.path.value()) : PathId();
    r.user_token = remap_token(src, r.user_token);
    r.process_token = remap_token(src, r.process_token);
    r.host_token = remap_token(src, r.host_token);
    r.dev_token = remap_token(src, r.dev_token);
    r.fid_token = remap_token(src, r.fid_token);
    r.program_token = remap_token(src, r.program_token);
    return r;
  }
};

}  // namespace

MultiTenantTrace make_multi_tenant_trace(std::span<const TraceKind> tenants,
                                         std::uint64_t seed, double scale) {
  MultiTenantTrace out;
  out.trace.kind = TraceKind::kCustom;
  out.trace.has_paths = !tenants.empty();
  out.trace.dict = std::make_shared<TraceDictionary>();
  out.trace.name = "MT[";
  out.file_begin.push_back(0);

  std::uint32_t next_user = 0, next_process = 0, next_host = 0, next_job = 0;
  std::uint32_t group_offset = 0;
  std::size_t total_records = 0;
  std::vector<TraceRecord> merged;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    // Split the master seed per tenant (SplitMix-style odd-constant jump)
    // so tenant streams are independent and the whole result is a pure
    // function of (tenants, seed, scale).
    const Trace sub = make_paper_trace(
        tenants[t], seed + 0x9E3779B97F4A7C15ull * (t + 1), scale);
    out.trace.name += (t ? "+" : "") + sub.name;
    out.trace.has_paths = out.trace.has_paths && sub.has_paths;

    TenantSplicer splicer{*out.trace.dict,
                          "t" + std::to_string(t) + "~",
                          {},
                          {},
                          0,
                          group_offset,
                          group_offset,
                          next_user,
                          next_process,
                          next_host,
                          next_job,
                          {},
                          {},
                          {},
                          {}};
    splicer.splice(sub);
    total_records += sub.records.size();
    merged.reserve(total_records);
    for (const TraceRecord& r : sub.records)
      merged.push_back(splicer.remap_record(*sub.dict, r));
    group_offset = std::max(group_offset, splicer.group_max);
    out.file_begin.push_back(
        static_cast<std::uint32_t>(out.trace.dict->files.size()));
  }
  out.trace.name += "]";

  // One MDS sees one time-ordered stream: interleave tenants by timestamp.
  // stable_sort keeps equal-time records in tenant order, so the merge is
  // deterministic.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  out.trace.records = std::move(merged);
  return out;
}

StreamedMultiTenantTrace stream_multi_tenant_trace(
    const StreamedTraceSpec& spec, const std::string& dir) {
  if (spec.tenants.empty())
    throw std::invalid_argument("stream_multi_tenant_trace: no tenants");
  if (spec.rounds == 0)
    throw std::invalid_argument("stream_multi_tenant_trace: zero rounds");

  // Quiet gap inserted between workload rounds on the time axis.
  constexpr SimTime kRoundGapUs = 1'000'000;

  StreamedMultiTenantTrace out;
  out.name = "MT[";
  out.file_begin.push_back(0);

  TraceDictionary dict;
  std::uint32_t next_user = 0, next_process = 0, next_host = 0, next_job = 0;
  std::uint32_t group_offset = 0;
  bool has_paths = true;
  // Every part embeds the final merged dictionary, so all writers stay
  // open until the last tenant is spliced (the v3 footer layout exists for
  // exactly this) — merge_trace_streams then sees identical dict bytes.
  std::vector<std::unique_ptr<TraceWriter>> writers;

  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    const std::string part_path =
        dir + "/part-t" + std::to_string(t) + ".ftrace";
    TenantSplicer splicer{dict,
                          "t" + std::to_string(t) + "~",
                          {},
                          {},
                          0,
                          group_offset,
                          group_offset,
                          next_user,
                          next_process,
                          next_host,
                          next_job,
                          {},
                          {},
                          {},
                          {}};
    std::unique_ptr<TraceWriter> writer;
    SimTime time_base = 0;
    std::vector<TraceRecord> batch;
    for (std::size_t r = 0; r < spec.rounds; ++r) {
      // Round 0 uses make_multi_tenant_trace's exact per-tenant seed split
      // (the rounds == 1 byte-identity depends on it); later rounds jump
      // by a second odd constant so round streams stay independent.
      const std::uint64_t sub_seed = spec.seed +
                                     0x9E3779B97F4A7C15ull * (t + 1) +
                                     0xD1B54A32D192ED03ull * r;
      const Trace sub = make_paper_trace(spec.tenants[t], sub_seed,
                                         spec.scale);
      if (r == 0) {
        out.name += (t ? "+" : "") + sub.name;
        has_paths = has_paths && sub.has_paths;
        writer = std::make_unique<TraceWriter>(part_path, spec.tenants[t],
                                               sub.has_paths);
      } else {
        // New round, fresh ground-truth groups: advance past everything
        // this tenant has produced so far.
        splicer.group_offset = splicer.group_max;
      }
      splicer.splice(sub);
      batch.clear();
      batch.reserve(sub.records.size());
      for (const TraceRecord& rec : sub.records) {
        TraceRecord m = splicer.remap_record(*sub.dict, rec);
        m.timestamp += time_base;
        batch.push_back(m);
      }
      writer->append(std::span<const TraceRecord>(batch));
      time_base += sub.duration() + kRoundGapUs;
    }
    group_offset = std::max(group_offset, splicer.group_max);
    out.file_begin.push_back(static_cast<std::uint32_t>(dict.files.size()));
    out.part_paths.push_back(part_path);
    writers.push_back(std::move(writer));
  }
  out.name += "]";
  out.has_paths = has_paths;

  for (std::size_t t = 0; t < writers.size(); ++t) {
    out.records_written += writers[t]->records_written();
    writers[t]->finish(out.name + "~t" + std::to_string(t), dict);
  }
  return out;
}

const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kLLNL:
      return "LLNL";
    case TraceKind::kINS:
      return "INS";
    case TraceKind::kRES:
      return "RES";
    case TraceKind::kHP:
      return "HP";
    case TraceKind::kCustom:
      return "CUSTOM";
  }
  return "?";
}

std::optional<TraceKind> parse_trace_kind(std::string_view name) noexcept {
  for (const TraceKind k :
       {TraceKind::kLLNL, TraceKind::kINS, TraceKind::kRES, TraceKind::kHP})
    if (name == trace_kind_name(k)) return k;
  return std::nullopt;
}

std::string TraceDictionary::path_string(PathId p) const {
  if (!p.valid()) return {};
  std::string out;
  for (TokenId t : path_components(p)) {
    out += '/';
    out += tokens.resolve(t);
  }
  return out;
}

}  // namespace farmer
