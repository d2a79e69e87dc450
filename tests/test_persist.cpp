// Tests for the durable persistence subsystem (src/persist/): checkpoint
// save/load round-trips on every backend, factory-level auto-recovery from
// a persist directory, corrupt-checkpoint fallback, config binding, and the
// crash-consistency contract — a subprocess is SIGKILLed mid-WAL-append and
// the reopened miner must answer queries byte-identically to a reference
// miner replayed over the durable prefix.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/miner_factory.hpp"
#include "api/miner_router.hpp"
#include "common/hash.hpp"
#include "persist/persister.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

namespace fs = std::filesystem;

/// Small but non-trivial paper trace shared across the suite. Built eagerly
/// by every test that forks, so the child inherits it instead of rebuilding.
const Trace& trace() {
  static const Trace t = make_paper_trace(TraceKind::kHP, 77, 0.08);
  return t;
}

FarmerConfig test_cfg() {
  FarmerConfig cfg;
  cfg.attributes = trace().has_paths ? AttributeMask::all_with_path()
                                     : AttributeMask::all_with_fileid();
  return cfg;
}

/// Persistence knobs sized for tests: frequent checkpoints, small commit
/// groups, real fsync (the crash tests depend on it).
MinerOptions persist_opts(const std::string& dir) {
  MinerOptions opts;
  opts.persist_dir = dir;
  opts.checkpoint_interval_records = 400;
  opts.wal_group_commit = 32;
  return opts;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// Byte-identical equivalence over the full query surface: access counts
/// and Correlator Lists for every file (bitwise float compare), pairwise
/// queries on a stride of pairs, and the ingested-request counter.
void expect_identical(const CorrelationMiner& got,
                      const CorrelationMiner& want) {
  ASSERT_EQ(got.stats().requests, want.stats().requests);
  const auto files =
      static_cast<std::uint32_t>(trace().dict->files.size());
  for (std::uint32_t f = 0; f < files; ++f) {
    const FileId id(f);
    ASSERT_EQ(got.access_count(id), want.access_count(id)) << "file " << f;
    const CorrelatorView g = got.snapshot(id);
    const CorrelatorView w = want.snapshot(id);
    ASSERT_EQ(g.size(), w.size()) << "file " << f;
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].file.value(), w[i].file.value())
          << "file " << f << " entry " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(g[i].degree),
                std::bit_cast<std::uint32_t>(w[i].degree))
          << "file " << f << " entry " << i;
    }
  }
  for (std::uint32_t a = 0; a < files; a += 17) {
    for (std::uint32_t b = 0; b < files; b += 29) {
      const FileId fa(a), fb(b);
      EXPECT_EQ(got.correlation_degree(fa, fb),
                want.correlation_degree(fa, fb));
      EXPECT_EQ(got.semantic_similarity(fa, fb),
                want.semantic_similarity(fa, fb));
      EXPECT_EQ(got.access_frequency(fa, fb), want.access_frequency(fa, fb));
    }
  }
}

std::unique_ptr<CorrelationMiner> reference_miner(
    const char* backend, std::span<const TraceRecord> records,
    const MinerOptions& opts = {}) {
  auto miner = make_miner(backend, test_cfg(), trace().dict, opts);
  miner->observe_batch(records);
  miner->flush();
  return miner;
}

// ------------------------------------------------------ save()/load() ----

TEST(PersistSaveLoad, FarmerRoundTrip) {
  TempDir dir("persist_farmer_rt");
  const auto source = reference_miner("farmer", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("farmer", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, ShardedRoundTrip) {
  TempDir dir("persist_sharded_rt");
  const auto source = reference_miner("sharded", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("sharded", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, ConcurrentRoundTrip) {
  TempDir dir("persist_concurrent_rt");
  auto source = reference_miner("concurrent", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("concurrent", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
  // The loaded miner keeps mining: further ingest lands on top of the
  // loaded model exactly as it would have on the original.
  loaded->observe_batch(std::span<const TraceRecord>(trace().records.data(),
                                                     64));
  loaded->flush();
  source->observe_batch(std::span<const TraceRecord>(trace().records.data(),
                                                     64));
  source->flush();
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, RouterRoundTripMixedBackends) {
  TempDir dir("persist_router_rt");
  MinerOptions opts;
  opts.router_tenants = 2;
  opts.router_backends = "0=sharded,1=farmer";
  const auto source = reference_miner("router", trace().records, opts);
  source->save(dir.str());
  auto loaded = make_miner("router", test_cfg(), trace().dict, opts);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, ShardedCheckpointLoadsIntoConcurrent) {
  // Same shard count + the deterministic shard_of routing make a "sharded"
  // checkpoint directly loadable by "concurrent" (and vice versa).
  TempDir dir("persist_cross_backend");
  const auto source = reference_miner("sharded", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("concurrent", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, LoadRequiresFreshMiner) {
  TempDir dir("persist_fresh_only");
  const auto source = reference_miner("farmer", trace().records);
  source->save(dir.str());
  auto dirty = make_miner("farmer", test_cfg(), trace().dict);
  dirty->observe(trace().records.front());
  EXPECT_THROW(dirty->load(dir.str()), std::logic_error);
  auto dirty_conc = make_miner("concurrent", test_cfg(), trace().dict);
  dirty_conc->observe(trace().records.front());
  dirty_conc->flush();
  EXPECT_THROW(dirty_conc->load(dir.str()), std::logic_error);
}

// Regression: checkpoints embed the dictionary with the shared v3 codec.
// The legacy v2 codec stored path-component counts in a uint8_t, so a path
// deeper than 255 components silently truncated on save and the reloaded
// miner was bound to a different dictionary than the one it was mined
// under. A >255-component path must round-trip through save()/load().
TEST(PersistSaveLoad, DeepPathDictionaryRoundTrips) {
  TempDir dir("persist_deep_path_rt");
  auto dict = std::make_shared<TraceDictionary>();
  SmallVector<TokenId, 8> comps;
  for (int i = 0; i < 300; ++i)
    comps.push_back(dict->tokens.intern("d" + std::to_string(i)));
  const PathId deep = dict->add_path(std::move(comps));
  for (std::uint32_t f = 0; f < 4; ++f) {
    FileMeta m;
    m.path = f == 0 ? deep : dict->add_path({dict->tokens.intern(
                                 "f" + std::to_string(f))});
    m.dev = dict->tokens.intern("dev0");
    m.fid = dict->tokens.intern("fid" + std::to_string(f));
    dict->files.push_back(m);
  }
  std::vector<TraceRecord> records;
  for (std::uint32_t i = 0; i < 64; ++i) {
    TraceRecord r;
    r.timestamp = i * 1000;
    r.file = FileId(i % 4);
    r.path = dict->files[i % 4].path;
    r.dev_token = dict->files[i % 4].dev;
    r.fid_token = dict->files[i % 4].fid;
    records.push_back(r);
  }
  FarmerConfig cfg;
  cfg.attributes = AttributeMask::all_with_path();

  auto source = make_miner("farmer", cfg, dict);
  source->observe_batch(records);
  source->flush();
  source->save(dir.str());

  auto loaded = make_miner("farmer", cfg, dict);
  loaded->load(dir.str());
  ASSERT_EQ(loaded->stats().requests, source->stats().requests);
  for (std::uint32_t f = 0; f < 4; ++f) {
    const FileId id(f);
    EXPECT_EQ(loaded->access_count(id), source->access_count(id));
    EXPECT_EQ(loaded->correlation_degree(id, FileId((f + 1) % 4)),
              source->correlation_degree(id, FileId((f + 1) % 4)));
  }
}

// ------------------------------------------- factory-level persistence ----

TEST(PersistReopen, ShardedRecoversAcrossProcessLifetime) {
  TempDir dir("persist_reopen_sharded");
  {
    auto miner =
        make_miner("sharded", test_cfg(), trace().dict,
                   persist_opts(dir.str()));
    EXPECT_STREQ(miner->name(), "sharded");  // decoration keeps the name
    miner->observe_batch(trace().records);
  }  // destructor syncs the WAL tail
  auto recovered = make_miner("sharded", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner("sharded", trace().records);
  expect_identical(*recovered, *reference);
}

TEST(PersistReopen, ConcurrentRecoversAcrossProcessLifetime) {
  TempDir dir("persist_reopen_concurrent");
  {
    auto miner = make_miner("concurrent", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    miner->observe_batch(trace().records);
    miner->flush();
  }
  auto recovered = make_miner("concurrent", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner("concurrent", trace().records);
  expect_identical(*recovered, *reference);
  // Recovered state accepts further ingest seamlessly.
  recovered->observe_batch(
      std::span<const TraceRecord>(trace().records.data(), 128));
  recovered->flush();
}

TEST(PersistReopen, RouterRecoversPerTenantSubdirectories) {
  TempDir dir("persist_reopen_router");
  MinerOptions opts = persist_opts(dir.str());
  opts.router_tenants = 2;
  opts.router_backends = "0=sharded,1=farmer";
  {
    auto miner = make_miner("router", test_cfg(), trace().dict, opts);
    miner->observe_batch(trace().records);
  }
  EXPECT_TRUE(fs::exists(dir.str() + "/tenant0"));
  EXPECT_TRUE(fs::exists(dir.str() + "/tenant1"));
  auto recovered = make_miner("router", test_cfg(), trace().dict, opts);
  MinerOptions ref_opts;
  ref_opts.router_tenants = 2;
  ref_opts.router_backends = "0=sharded,1=farmer";
  const auto reference =
      reference_miner("router", trace().records, ref_opts);
  expect_identical(*recovered, *reference);
}

TEST(PersistReopen, CorruptNewestCheckpointFallsBackToOlder) {
  TempDir dir("persist_corrupt_ckpt");
  {
    auto miner = make_miner("sharded", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    // Chunked ingest: checkpoints are initiated on batch boundaries, so one
    // giant batch would commit only a single checkpoint.
    const auto& records = trace().records;
    for (std::size_t i = 0; i < records.size(); i += 200)
      miner->observe_batch(std::span<const TraceRecord>(
          records.data() + i, std::min<std::size_t>(200, records.size() - i)));
  }
  // The trace is large enough for several checkpoint intervals, and the
  // pruner keeps the two newest checkpoints.
  std::vector<fs::path> checkpoints;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    const std::string name = e.path().filename().string();
    if (name.rfind("CHECKPOINT.", 0) == 0 &&
        name.find(".tmp") == std::string::npos)
      checkpoints.push_back(e.path());
  }
  ASSERT_GE(checkpoints.size(), 2u);
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const fs::path& a, const fs::path& b) {
              return std::stoull(a.filename().string().substr(11)) <
                     std::stoull(b.filename().string().substr(11));
            });
  // Flip one byte in the middle of the newest checkpoint: its checksum
  // fails, recovery falls back to the older one and replays the longer WAL
  // tail — ending at exactly the same durable state.
  {
    const fs::path& victim = checkpoints.back();
    const auto size = fs::file_size(victim);
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto recovered = make_miner("sharded", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner("sharded", trace().records);
  expect_identical(*recovered, *reference);
}

TEST(PersistReopen, ConfigMismatchThrows) {
  TempDir dir("persist_cfg_mismatch");
  {
    auto miner = make_miner("farmer", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    miner->observe_batch(trace().records);
  }
  FarmerConfig other = test_cfg();
  other.p = other.p / 2.0;
  EXPECT_THROW(
      make_miner("farmer", other, trace().dict, persist_opts(dir.str())),
      std::runtime_error);
}

TEST(PersistReopen, WalOnlyDirIsBoundToItsDictionary) {
  // Regression: a directory killed before its first checkpoint holds only
  // WAL segments, which carry no config/dictionary binding of their own.
  // The MANIFEST written at first open must reject a reopen under a
  // different trace or config instead of replaying foreign records into a
  // mismatched model.
  TempDir dir("persist_wal_only_binding");
  {
    auto miner = make_miner("farmer", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    // Fewer records than the 400-record checkpoint interval: WAL only.
    miner->observe_batch(
        std::span<const TraceRecord>(trace().records.data(), 100));
  }
  EXPECT_TRUE(fs::exists(dir.str() + "/MANIFEST"));
  for (const auto& e : fs::directory_iterator(dir.str()))
    ASSERT_EQ(e.path().filename().string().rfind("CHECKPOINT.", 0),
              std::string::npos)
        << "test premise broken: a checkpoint was committed";

  const Trace other = make_paper_trace(TraceKind::kINS, 11, 0.02);
  EXPECT_THROW(
      make_miner("farmer", test_cfg(), other.dict, persist_opts(dir.str())),
      std::runtime_error);
  FarmerConfig other_cfg = test_cfg();
  other_cfg.p = other_cfg.p / 2.0;
  EXPECT_THROW(
      make_miner("farmer", other_cfg, trace().dict, persist_opts(dir.str())),
      std::runtime_error);

  // The matching config + dictionary still recovers cleanly.
  auto recovered = make_miner("farmer", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner(
      "farmer", std::span<const TraceRecord>(trace().records.data(), 100));
  expect_identical(*recovered, *reference);
}

// ------------------------------------------------- failed publish ----

/// Names of the CHECKPOINT.* entries (committed or .tmp) in `dir`.
std::vector<std::string> checkpoint_entries(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; ++it) {
    const std::string name = it->path().filename().string();
    if (name.rfind("CHECKPOINT.", 0) == 0) out.push_back(name);
  }
  return out;
}

TEST(PersistSaveLoad, FailedWriteIsNotPublished) {
  // Regression: write_framed_atomic ignored fflush/fsync/fclose, so a
  // checkpoint whose buffered tail (the 8-byte checksum) never reached the
  // disk was renamed into place, save() reported success and the next
  // load() restored nothing. A file-size limit 8 bytes short of the
  // checkpoint makes exactly that tail fail with EFBIG.
  TempDir ok_dir("persist_publish_ok");
  TempDir bad_dir("persist_publish_efbig");
  const auto model = reference_miner("farmer", trace().records);
  model->save(ok_dir.str());
  const std::vector<std::string> saved = checkpoint_entries(ok_dir.str());
  ASSERT_EQ(saved.size(), 1u);
  const auto size = fs::file_size(ok_dir.str() + "/" + saved.front());
  ASSERT_GT(size, 8u);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: past the limit a write fails with EFBIG instead of raising
    // SIGXFSZ. Exit 0 only when save() throws std::runtime_error.
    std::signal(SIGXFSZ, SIG_IGN);
    const rlim_t cap = static_cast<rlim_t>(size - 8);
    const rlimit lim{cap, cap};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(4);
    try {
      model->save(bad_dir.str());
    } catch (const std::runtime_error&) {
      ::_exit(0);
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: save() reported success on a failed write; 2: wrong "
         "exception type; 4: setrlimit failed";
  EXPECT_TRUE(checkpoint_entries(bad_dir.str()).empty())
      << "a failed save() left a checkpoint file behind";
}

// --------------------------------------------------- kill-and-recover ----

/// Forks a child that ingests the trace on repeat (single producer, so WAL
/// order is trace order) into `backend` with persistence in `dir`, until
/// the parent SIGKILLs it mid-WAL-append.
pid_t spawn_ingest_child(const char* backend, const std::string& dir,
                         MinerOptions opts) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  opts.persist_dir = dir;
  {
    auto miner = make_miner(backend, test_cfg(), trace().dict, opts);
    const auto& records = trace().records;
    for (;;)
      for (const TraceRecord& r : records) miner->observe(r);
  }
  ::_exit(3);  // unreachable
}

/// Waits until a committed (non-.tmp) checkpoint exists under `dir`, lets a
/// little more WAL accumulate, then SIGKILLs and reaps the child.
void kill_after_first_checkpoint(pid_t child, const std::string& dir) {
  bool saw_checkpoint = false;
  for (int i = 0; i < 30000 && !saw_checkpoint; ++i) {
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end; ++it) {
      const std::string name = it->path().filename().string();
      if (name.rfind("CHECKPOINT.", 0) == 0 &&
          name.find(".tmp") == std::string::npos)
        saw_checkpoint = true;
    }
    if (!saw_checkpoint)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(saw_checkpoint) << "child never committed a checkpoint";
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

/// The shared sharded/concurrent crash differential: kill mid-append, read
/// the durable record count, replay exactly that prefix of the (repeated)
/// trace into a fresh reference miner, and demand byte-identical queries
/// from the recovered miner.
void run_kill_and_recover(const char* backend) {
  (void)trace();  // build the trace before forking
  TempDir dir(std::string("persist_kill_") + backend);
  const pid_t child = spawn_ingest_child(backend, dir.str(), persist_opts(""));
  ASSERT_GT(child, 0);
  kill_after_first_checkpoint(child, dir.str());

  const persist::Recovery rec =
      persist::recover_dir(dir.str(), test_cfg(), trace().dict.get());
  const std::uint64_t durable = rec.durable_records();
  ASSERT_GT(durable, 0u);

  const auto& records = trace().records;
  std::vector<TraceRecord> prefix;
  prefix.reserve(durable);
  for (std::uint64_t i = 0; i < durable; ++i)
    prefix.push_back(records[i % records.size()]);
  const auto reference = reference_miner(backend, prefix);

  auto recovered = make_miner(backend, test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  expect_identical(*recovered, *reference);
}

TEST(PersistKillAndRecover, Sharded) { run_kill_and_recover("sharded"); }

TEST(PersistKillAndRecover, Concurrent) {
  run_kill_and_recover("concurrent");
}

TEST(PersistKillAndRecover, Router) {
  (void)trace();
  TempDir dir("persist_kill_router");
  MinerOptions opts = persist_opts("");
  opts.router_tenants = 2;
  opts.router_backends = "0=sharded,1=farmer";
  const pid_t child = spawn_ingest_child("router", dir.str(), opts);
  ASSERT_GT(child, 0);
  // Tenant subdirectories checkpoint independently; waiting on tenant0 is
  // enough to know the child is well past its first checkpoint interval.
  kill_after_first_checkpoint(child, dir.str() + "/tenant0");

  // Each tenant's durable prefix is independent: reconstruct each child's
  // sub-stream with the router's own range mapping and feed the reference
  // router exactly the per-tenant prefixes recovery will produce.
  const auto tenant_of = MinerRouter::range_tenants(
      2, static_cast<std::uint32_t>(trace().dict->files.size()));
  std::vector<std::vector<TraceRecord>> streams(2);
  for (const TraceRecord& r : trace().records)
    streams[tenant_of(r.file)].push_back(r);
  MinerOptions ref_opts;
  ref_opts.router_tenants = 2;
  ref_opts.router_backends = "0=sharded,1=farmer";
  auto reference = make_miner("router", test_cfg(), trace().dict, ref_opts);
  for (std::size_t t = 0; t < 2; ++t) {
    ASSERT_FALSE(streams[t].empty());
    const persist::Recovery rec = persist::recover_dir(
        dir.str() + "/tenant" + std::to_string(t), test_cfg(),
        trace().dict.get());
    for (std::uint64_t i = 0; i < rec.durable_records(); ++i)
      reference->observe(streams[t][i % streams[t].size()]);
  }
  reference->flush();

  MinerOptions recover_opts = opts;
  recover_opts.persist_dir = dir.str();
  auto recovered =
      make_miner("router", test_cfg(), trace().dict, recover_opts);
  expect_identical(*recovered, *reference);
}

TEST(PersistKillAndRecover, Cluster) {
  (void)trace();
  TempDir dir("persist_kill_cluster");
  MinerOptions opts = persist_opts("");
  opts.cluster_shards = 2;
  // The child runs the whole distributed deployment in-process: SIGKILL
  // takes down the cluster client AND every shard server mid-request.
  const pid_t child = spawn_ingest_child("cluster", dir.str(), opts);
  ASSERT_GT(child, 0);
  // Shard subdirectories checkpoint independently; shard0's first committed
  // checkpoint means the child is well past its first interval.
  kill_after_first_checkpoint(child, dir.str() + "/shard0");

  // Each shard's durable prefix is independent. Reconstruct the per-shard
  // sub-streams with the cluster's own routing (mix64 of the process id —
  // identical to ShardedFarmer::shard_of), and feed a sharded reference
  // exactly the prefixes recovery will reproduce: the records route back
  // to their original shards, so the models coincide bit for bit.
  std::vector<std::vector<TraceRecord>> streams(2);
  for (const TraceRecord& r : trace().records)
    streams[static_cast<std::size_t>(mix64(r.process.value())) % 2]
        .push_back(r);
  MinerOptions ref_opts;
  ref_opts.shards = 2;
  auto reference = make_miner("sharded", test_cfg(), trace().dict, ref_opts);
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_FALSE(streams[s].empty());
    const persist::Recovery rec = persist::recover_dir(
        dir.str() + "/shard" + std::to_string(s), test_cfg(),
        trace().dict.get());
    ASSERT_GT(rec.durable_records(), 0u) << "shard " << s;
    for (std::uint64_t i = 0; i < rec.durable_records(); ++i)
      reference->observe(streams[s][i % streams[s].size()]);
  }
  reference->flush();

  // Reopening the cluster recovers every shard server from its own
  // directory; the recovered distributed model answers byte-identically
  // to the reference replay of the durable prefixes.
  MinerOptions recover_opts = opts;
  recover_opts.persist_dir = dir.str();
  auto recovered =
      make_miner("cluster", test_cfg(), trace().dict, recover_opts);
  expect_identical(*recovered, *reference);
}

}  // namespace
}  // namespace farmer
