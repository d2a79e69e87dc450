// Tests for the durable persistence subsystem (src/persist/): the WAL
// segment format and its torn-tail repair, checkpoint save/load round-trips
// on every backend, factory-level auto-recovery from a persist directory,
// corrupt-checkpoint fallback, config binding, WAL write failures, and the
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
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "api/miner_factory.hpp"
#include "common/hash.hpp"
#include "core/farmer.hpp"
#include "persist/checkpoint.hpp"
#include "persist/persister.hpp"
#include "persist/wal.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

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
    const char* backend, std::span<const TraceRecord> records) {
  auto miner = make_miner(backend, test_cfg(), trace().dict);
  miner->observe_batch(records);
  miner->flush();
  return miner;
}

/// Runs `body` in a forked child whose file-size limit is `cap` bytes, so a
/// write past it fails with EFBIG instead of raising SIGXFSZ. Returns the
/// child's exit status: what `body` returned, 2 when it threw, 4 when
/// setrlimit failed, -1 when the child did not exit normally (a throwing
/// destructor, say).
template <typename Body>
int exit_status_under_file_size_limit(std::uintmax_t cap, Body body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit lim{static_cast<rlim_t>(cap), static_cast<rlim_t>(cap)};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(4);
    try {
      ::_exit(body());
    } catch (...) {
      ::_exit(2);
    }
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
    return -1;
  return WEXITSTATUS(status);
}

// ------------------------------------------------------ WAL segments ----

/// Bytes of one WAL record frame: [u32 checksum][u8 op][u64 seq][u32 len]
/// header, then the record.
constexpr std::size_t kWalHeaderBytes = 17;
constexpr std::size_t kWalFrameBytes = kWalHeaderBytes + sizeof(TraceRecord);

/// The record checksum as wal.hpp specifies it, computed independently of
/// the writer.
std::uint32_t wal_checksum(std::uint64_t seq, const void* body,
                           std::uint32_t len) {
  const std::uint64_t seed =
      mix64(seq ^ (std::uint64_t{1} << 56) ^ (len * 0x9E3779B97F4A7C15ull));
  return static_cast<std::uint32_t>(mix_bytes(seed, body, len));
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

template <typename T>
T field_at(const std::string& bytes, std::size_t off) {
  T v;
  std::memcpy(&v, bytes.data() + off, sizeof v);
  return v;
}

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

/// A record's canonical bytes: what the WAL stores for it.
std::string canonical(const TraceRecord& r) {
  std::string out(sizeof(TraceRecord), '\0');
  canonical_bytes(r, reinterpret_cast<unsigned char*>(out.data()));
  return out;
}

using SeqRecord = std::pair<std::uint64_t, TraceRecord>;

std::vector<SeqRecord> read_segment(const std::string& path) {
  std::vector<SeqRecord> out;
  persist::read_wal_segment(path,
                            [&](std::uint64_t seq, const TraceRecord& r) {
                              out.emplace_back(seq, r);
                            });
  return out;
}

/// Appends trace records [first, first + n) as sequence numbers first + 1,
/// ..., then syncs.
void write_segment(const std::string& path, std::size_t first,
                   std::size_t n) {
  persist::WalWriter w(path);
  w.append(first + 1, std::span<const TraceRecord>(
                          trace().records.data() + first, n));
  w.sync();
}

/// True when `got` holds exactly trace records [0, n) as seqs 1..n.
::testing::AssertionResult is_trace_prefix(const std::vector<SeqRecord>& got,
                                           std::size_t n) {
  if (got.size() != n)
    return ::testing::AssertionFailure()
           << got.size() << " records, want " << n;
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i].first != i + 1)
      return ::testing::AssertionFailure()
             << "record " << i << " has seq " << got[i].first;
    if (canonical(got[i].second) != canonical(trace().records[i]))
      return ::testing::AssertionFailure() << "record " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

void append_junk(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[] = {0x13, 0x37, 0x00, 0x42};
  ASSERT_EQ(std::fwrite(junk, 1, sizeof junk, f), sizeof junk);
  std::fclose(f);
}

class PersistWal : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test file name: ctest runs each test as its own process, so a
  // shared name would race under a parallel ctest invocation.
  std::string path_ =
      ::testing::TempDir() + "farmer_wal_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
};

// Two records through the factory's persist path: every field of each
// frame sits at its documented offset, and the checksum is the documented
// mix64 chain.
TEST_F(PersistWal, RecordFieldsSitAtTheirOffsets) {
  TempDir dir("persist_wal_layout");
  const std::span<const TraceRecord> two(trace().records.data(), 2);
  make_miner("farmer", test_cfg(), trace().dict, persist_opts(dir.str()))
      ->observe_batch(two);
  const std::string bytes = file_bytes(dir.str() + "/wal.0");
  ASSERT_EQ(bytes.size(), 2 * kWalFrameBytes);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t at = i * kWalFrameBytes;
    const std::string body = bytes.substr(at + 17, sizeof(TraceRecord));
    EXPECT_EQ(field_at<std::uint32_t>(bytes, at),
              wal_checksum(i + 1, body.data(), sizeof(TraceRecord)));
    EXPECT_EQ(field_at<std::uint8_t>(bytes, at + 4), 1u);
    EXPECT_EQ(field_at<std::uint64_t>(bytes, at + 5), i + 1);
    EXPECT_EQ(field_at<std::uint32_t>(bytes, at + 13), 64u);
    EXPECT_EQ(body, canonical(two[i]));
  }
}

// Regression: the WAL copied TraceRecord's three padding bytes (record
// offsets 78-80 of a frame) from memory, so two runs over the same trace
// could write different bytes. The WAL stores the canonical encoding the
// v3 trace writer uses, padding zeroed.
TEST_F(PersistWal, RecordPaddingIsWrittenAsZeros) {
  TempDir dir("persist_wal_padding");
  std::vector<TraceRecord> records(trace().records.begin(),
                                   trace().records.begin() + 8);
  constexpr std::size_t kPadAt = offsetof(TraceRecord, op) + 1;
  static_assert(sizeof(TraceRecord) - kPadAt == 3);
  for (TraceRecord& r : records)
    std::memset(reinterpret_cast<unsigned char*>(&r) + kPadAt, 0xAB,
                sizeof(TraceRecord) - kPadAt);
  make_miner("farmer", test_cfg(), trace().dict, persist_opts(dir.str()))
      ->observe_batch(records);
  const std::string bytes = file_bytes(dir.str() + "/wal.0");
  ASSERT_EQ(bytes.size(), records.size() * kWalFrameBytes);
  for (std::size_t i = 0; i < records.size(); ++i)
    for (std::size_t off = 78; off <= 80; ++off)
      EXPECT_EQ(bytes[i * kWalFrameBytes + off], 0)
          << "record " << i << " offset " << off;
}

TEST_F(PersistWal, RecoversFromTornTail) {
  write_segment(path_, 0, 2);
  append_junk(path_);
  EXPECT_TRUE(is_trace_prefix(read_segment(path_), 2));
  // The segment keeps working after its torn tail is cut.
  write_segment(path_, 2, 1);
  EXPECT_TRUE(is_trace_prefix(read_segment(path_), 3));
}

// Regression: replay cut a torn tail by reopening the log "wb" (length 0)
// and writing the valid prefix back with an unchecked fwrite, so a failed
// write, or a crash between the two, lost records that were already
// durable. A child whose file-size limit is half the valid prefix makes
// that rewrite fail with EFBIG; repairing in place never rewrites a byte.
TEST_F(PersistWal, TornTailRepairKeepsEveryValidRecord) {
  constexpr std::size_t kRecords = 64;
  write_segment(path_, 0, kRecords);
  const std::uintmax_t valid_size = fs::file_size(path_);
  append_junk(path_);

  // Reading the segment runs the torn-tail repair.
  const int status = exit_status_under_file_size_limit(valid_size / 2, [&] {
    persist::read_wal_segment(path_, [](std::uint64_t, const TraceRecord&) {});
    return 0;
  });
  EXPECT_EQ(status, 0) << "2: reading the segment threw; 4: setrlimit failed";

  EXPECT_TRUE(is_trace_prefix(read_segment(path_), kRecords));
  EXPECT_EQ(fs::file_size(path_), valid_size);
}

/// The calling process's virtual size in bytes, read from
/// /proc/self/status; 0 when it cannot be read.
std::uintmax_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::uintmax_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

// A record's stored length must be checked against the file before the
// reader allocates or reads its body: one flipped byte in the last record's
// length field would otherwise ask for up to 4 GiB, and under an
// address-space limit std::bad_alloc would leave the segment unreadable. A
// child with 1 GiB of address space to spare must still recover every
// intact record.
TEST_F(PersistWal, CorruptLengthIsBoundedBeforeAllocation) {
  constexpr std::size_t kRecords = 8;
  write_segment(path_, 0, kRecords);
  const std::uintmax_t valid_size = fs::file_size(path_);
  write_segment(path_, kRecords, 1);
  {
    // The last record's length field sits 13 bytes past its start.
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(valid_size) + 13, SEEK_SET),
              0);
    const std::uint32_t corrupt_len = 0xFFFFFFF0u;
    ASSERT_EQ(std::fwrite(&corrupt_len, sizeof corrupt_len, 1, f), 1u);
    std::fclose(f);
  }

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the limit leaves 1 GiB above what is already mapped, so
    // sanitizer reservations still fit but a 4 GiB buffer does not.
    const std::uintmax_t vm = vm_size_bytes();
    if (vm == 0) ::_exit(5);
    const rlim_t cap = static_cast<rlim_t>(vm + (std::uintmax_t{1} << 30));
    const rlimit lim{cap, cap};
    if (::setrlimit(RLIMIT_AS, &lim) != 0) ::_exit(4);
    std::size_t recovered = 0;
    try {
      persist::read_wal_segment(
          path_, [&](std::uint64_t, const TraceRecord&) { ++recovered; });
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(recovered == kRecords ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: reading the segment threw; 3: wrong record count; "
         "4: setrlimit failed; 5: VmSize unreadable";
  EXPECT_EQ(fs::file_size(path_), valid_size);
}

// sync() is flush + fdatasync; records appended on either side of a sync
// read back in order.
TEST_F(PersistWal, FsyncModeRoundTrip) {
  {
    persist::WalWriter w(path_);
    w.append(1, std::span<const TraceRecord>(trace().records.data(), 2));
    w.sync();
    w.append(3, std::span<const TraceRecord>(trace().records.data() + 2, 1));
    w.sync();
  }
  EXPECT_TRUE(is_trace_prefix(read_segment(path_), 3));
}

// A record whose checksum verifies but whose length is not one TraceRecord
// is not torn: it belongs to another format, and reading it throws.
TEST_F(PersistWal, VerifiedRecordOfAnotherLengthThrows) {
  const std::string body(sizeof(TraceRecord) - 1, 'x');
  const auto len = static_cast<std::uint32_t>(body.size());
  const std::uint32_t csum = wal_checksum(1, body.data(), len);
  const std::uint8_t op = 1;
  const std::uint64_t seq = 1;
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&csum), sizeof csum);
  frame.append(reinterpret_cast<const char*>(&op), sizeof op);
  frame.append(reinterpret_cast<const char*>(&seq), sizeof seq);
  frame.append(reinterpret_cast<const char*>(&len), sizeof len);
  frame += body;
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
  std::fclose(f);
  EXPECT_THROW(read_segment(path_), std::runtime_error);
}

// Torn-write fuzz: truncate a valid segment at EVERY byte offset and assert
// reading it always recovers the longest prefix of fully contained records
// — never more, never fewer, never a crash — and leaves it appendable.
TEST_F(PersistWal, TruncationAtEveryOffsetRecoversLongestValidPrefix) {
  constexpr std::size_t kRecords = 6;
  write_segment(path_, 0, kRecords);
  const std::string image = file_bytes(path_);
  ASSERT_EQ(image.size(), kRecords * kWalFrameBytes);

  const std::string cut_path = path_ + ".cut";
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    {
      std::FILE* f = std::fopen(cut_path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      if (cut > 0) {
        ASSERT_EQ(std::fwrite(image.data(), 1, cut, f), cut);
      }
      std::fclose(f);
    }
    const std::size_t expect = cut / kWalFrameBytes;
    ASSERT_TRUE(is_trace_prefix(read_segment(cut_path), expect))
        << "cut at " << cut;
    EXPECT_EQ(fs::file_size(cut_path), expect * kWalFrameBytes)
        << "cut at " << cut;
    // The truncated segment must stay appendable.
    write_segment(cut_path, expect, 1);
    EXPECT_TRUE(is_trace_prefix(read_segment(cut_path), expect + 1))
        << "cut at " << cut;
  }
  std::remove(cut_path.c_str());
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
  // The loaded miner keeps mining: further ingest lands on top of the
  // loaded model exactly as it would have on the original.
  const std::span<const TraceRecord> more(trace().records.data(), 64);
  loaded->observe_batch(more);
  source->observe_batch(more);
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, LoadRequiresFreshMiner) {
  TempDir dir("persist_fresh_only");
  const auto source = reference_miner("farmer", trace().records);
  source->save(dir.str());
  auto dirty = make_miner("farmer", test_cfg(), trace().dict);
  dirty->observe(trace().records.front());
  EXPECT_THROW(dirty->load(dir.str()), std::logic_error);
  auto dirty_sharded = make_miner("sharded", test_cfg(), trace().dict);
  dirty_sharded->observe(trace().records.front());
  EXPECT_THROW(dirty_sharded->load(dir.str()), std::logic_error);
}

// Shard i's blob restores shard i, so a checkpoint restores only into a
// miner with as many shards as the one that saved it.
TEST(PersistSaveLoad, LoadRejectsAnotherShardCount) {
  TempDir dir("persist_shard_count");
  const auto source = reference_miner("sharded", trace().records);
  ASSERT_EQ(source->stats().shards, 4u);
  source->save(dir.str());
  auto farmer = make_miner("farmer", test_cfg(), trace().dict);
  EXPECT_THROW(farmer->load(dir.str()), std::runtime_error);
  MinerOptions two;
  two.shards = 2;
  auto sharded = make_miner("sharded", test_cfg(), trace().dict, two);
  EXPECT_THROW(sharded->load(dir.str()), std::runtime_error);
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

// Checkpoint format 3, pinned: save() of a "farmer" model over HP (IPA path
// tokens) and over INS (FileId items) writes exactly these bytes, checked by
// length and by the trailing body checksum. An in-memory layout change
// (Signature, SmallVector) must leave them alone; a change that moves them
// changes the on-disk format, so it bumps kCheckpointVersion and re-records
// both pins together.
TEST(PersistSaveLoad, CheckpointBytesArePinned) {
  static_assert(persist::kCheckpointVersion == 3,
                "re-record the pinned checkpoints for the new version");
  struct Pin {
    TraceKind kind;
    const char* name;
    std::size_t bytes;
    std::uint64_t checksum;
  };
  const Pin pins[] = {
      {TraceKind::kHP, "HP", 70230, 0xb4a9a61c459c2c46ull},
      {TraceKind::kINS, "INS", 5230, 0x1fc0b4891c10c05cull},
  };
  for (const Pin& pin : pins) {
    const Trace t = make_paper_trace(pin.kind, 42, 0.02);
    FarmerConfig cfg;
    cfg.attributes = t.has_paths ? AttributeMask::all_with_path()
                                 : AttributeMask::all_with_fileid();
    TempDir dir(std::string("persist_pinned_") + pin.name);
    auto miner = make_miner("farmer", cfg, t.dict);
    miner->observe_batch(t.records);
    miner->flush();
    miner->save(dir.str());
    const std::vector<std::string> entries = checkpoint_entries(dir.str());
    ASSERT_EQ(entries.size(), 1u) << pin.name;
    const std::string bytes = file_bytes(dir.str() + "/" + entries.front());
    ASSERT_GE(bytes.size(), sizeof(std::uint64_t)) << pin.name;
    EXPECT_EQ(bytes.size(), pin.bytes) << pin.name;
    const auto checksum =
        field_at<std::uint64_t>(bytes, bytes.size() - sizeof(std::uint64_t));
    EXPECT_EQ(checksum, pin.checksum)
        << pin.name << " checksum 0x" << std::hex << checksum;
  }
}

// A shard blob stores each signature's IPA flag after its path run, and the
// flag is redundant with that run: a signature has an IPA path exactly when
// the run is non-empty. A flag that disagrees describes a signature no
// ingest builds, so deserialize_shard rejects it with a typed error.
TEST(PersistSaveLoad, IpaFlagThatDisagreesWithThePathRunThrows) {
  for (const TraceKind kind : {TraceKind::kHP, TraceKind::kINS}) {
    const Trace t = make_paper_trace(kind, 42, 0.02);
    FarmerConfig cfg;
    cfg.attributes = t.has_paths ? AttributeMask::all_with_path()
                                 : AttributeMask::all_with_fileid();
    Farmer source(cfg, t.dict);
    source.observe_batch(t.records);
    std::string blob = persist::serialize_shard(source);
    Farmer intact(cfg, t.dict);
    ASSERT_NO_THROW(persist::deserialize_shard(blob, intact));
    // The blob ends with the last file's flag: 1 under HP's IPA paths, 0
    // for INS, which has none.
    ASSERT_EQ(blob.back(), t.has_paths ? 1 : 0);
    blob.back() = static_cast<char>(blob.back() ^ 1);
    Farmer flipped(cfg, t.dict);
    EXPECT_THROW(persist::deserialize_shard(blob, flipped),
                 std::runtime_error);
  }
}

// ------------------------------------------- factory-level persistence ----

/// Inverts the byte in the middle of the file at `path`.
void flip_middle_byte(const std::string& path) {
  const auto middle = static_cast<long>(fs::file_size(path) / 2);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, middle, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, middle, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

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
  flip_middle_byte(checkpoints.back().string());
  auto recovered = make_miner("sharded", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner("sharded", trace().records);
  expect_identical(*recovered, *reference);
}

// Regression: a corrupt sole checkpoint leaves a gap — its prune already
// dropped wal.0 — so the directory recovers to no records, and the segment
// past the gap (wal.100: records 101-150 of the first history) stays
// behind. The second history's checkpoint interval decides how a
// surviving wal.100 would be replayed: at 100 the second history rotates
// to that very name and appends behind the stale records, which the next
// recovery would then replay in place of its own; at 120 it keeps its
// tail in wal.120, and recovery would read records 121-150 of the first
// history out of wal.100 as that tail.
TEST(PersistReopen, StaleSegmentPastAGapIsNotReplayed) {
  constexpr std::size_t kRecords = 150;
  constexpr std::size_t kBatch = 10;  // a checkpoint lands on any multiple
  constexpr std::size_t kSecondHistory = 1000;
  ASSERT_GE(trace().records.size(), kSecondHistory + kRecords);
  const auto ingest = [&](CorrelationMiner& miner, std::size_t first) {
    for (std::size_t i = first; i < first + kRecords; i += kBatch)
      miner.observe_batch(
          std::span<const TraceRecord>(trace().records.data() + i, kBatch));
  };
  for (const std::size_t second_interval : {100u, 120u}) {
    SCOPED_TRACE("second history's checkpoint interval " +
                 std::to_string(second_interval));
    TempDir dir("persist_stale_segment_" + std::to_string(second_interval));
    MinerOptions opts = persist_opts(dir.str());
    opts.checkpoint_interval_records = 100;
    ingest(*make_miner("farmer", test_cfg(), trace().dict, opts), 0);
    ASSERT_TRUE(fs::exists(dir.str() + "/wal.100"));
    ASSERT_FALSE(fs::exists(dir.str() + "/wal.0"));
    flip_middle_byte(dir.str() + "/CHECKPOINT.100");
    opts.checkpoint_interval_records = second_interval;
    {
      auto miner = make_miner("farmer", test_cfg(), trace().dict, opts);
      ASSERT_EQ(miner->stats().requests, 0u);
      ingest(*miner, kSecondHistory);
    }
    auto recovered = make_miner("farmer", test_cfg(), trace().dict, opts);
    const auto reference = reference_miner(
        "farmer", std::span<const TraceRecord>(
                      trace().records.data() + kSecondHistory, kRecords));
    expect_identical(*recovered, *reference);
  }
}

TEST(PersistReopen, CheckpointOfAnotherFormatVersionThrows) {
  TempDir dir("persist_version_mismatch");
  {
    auto miner = make_miner("sharded", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    const auto& records = trace().records;
    for (std::size_t i = 0; i < records.size(); i += 200)
      miner->observe_batch(std::span<const TraceRecord>(
          records.data() + i, std::min<std::size_t>(200, records.size() - i)));
  }
  // Stamp every checkpoint with the previous format version. The checksum
  // covers the body only, so each frame stays intact: these are an older
  // build's checkpoints, not torn ones, and recovery must refuse them
  // instead of falling back past all of them to a WAL whose early segments
  // were pruned.
  const std::uint32_t old_version = persist::kCheckpointVersion - 1;
  std::size_t patched = 0;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    const std::string name = e.path().filename().string();
    if (name.rfind("CHECKPOINT.", 0) != 0 ||
        name.find(".tmp") != std::string::npos)
      continue;
    std::FILE* f = std::fopen(e.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, sizeof(std::uint32_t), SEEK_SET), 0);  // magic
    ASSERT_EQ(std::fwrite(&old_version, sizeof old_version, 1, f), 1u);
    std::fclose(f);
    ++patched;
  }
  ASSERT_GE(patched, 2u);
  try {
    auto reopened = make_miner("sharded", test_cfg(), trace().dict,
                               persist_opts(dir.str()));
    FAIL() << "reopen accepted checkpoints of format version "
           << old_version;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CHECKPOINT."), std::string::npos) << what;
    EXPECT_NE(what.find("version " + std::to_string(old_version)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("version " +
                        std::to_string(persist::kCheckpointVersion)),
              std::string::npos)
        << what;
  }
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

// -------------------------------------------------- failed writes ----

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

  // Exit 0 only when save() throws std::runtime_error.
  const int status = exit_status_under_file_size_limit(size - 8, [&] {
    try {
      model->save(bad_dir.str());
    } catch (const std::runtime_error&) {
      return 0;
    }
    return 1;
  });
  EXPECT_EQ(status, 0) << "1: save() reported success on a failed write; "
                          "2: wrong exception type; 4: setrlimit failed";
  EXPECT_TRUE(checkpoint_entries(bad_dir.str()).empty())
      << "a failed save() left a checkpoint file behind";
}

constexpr const char* kWalFailureCodes =
    "1: ingest never failed; 2: wrong exception type; 3: the call after the "
    "failure succeeded; 4: setrlimit failed; 5: not EFBIG; -1: the child "
    "crashed";

/// The persist directory recovers to a model identical to a reference fed
/// exactly the records it durably holds.
void expect_recovers_to_durable_prefix(const std::string& dir) {
  auto recovered =
      make_miner("sharded", test_cfg(), trace().dict, persist_opts(dir));
  const std::uint64_t durable = recovered->stats().requests;
  ASSERT_LT(durable, trace().records.size());
  const auto reference = reference_miner(
      "sharded",
      std::span<const TraceRecord>(trace().records.data(), durable));
  expect_identical(*recovered, *reference);
}

// Regression: the WAL discarded the results of fwrite, fflush and
// fdatasync, so a WAL that stopped growing was still acknowledged as
// durable and ingest ran on. With a file-size limit at half the WAL's
// final size (no checkpoint is due, so only the WAL grows), ingest must
// throw EFBIG before the trace ends, and every later call throw too.
TEST(PersistReopen, WalWriteFailureStopsIngest) {
  TempDir dir("persist_wal_efbig");
  const auto& records = trace().records;
  MinerOptions opts = persist_opts(dir.str());
  opts.checkpoint_interval_records = records.size() + 1;
  constexpr std::size_t kBatch = 64;
  const auto batch = [&](std::size_t i) {
    return std::span<const TraceRecord>(
        records.data() + i, std::min(kBatch, records.size() - i));
  };

  const int status = exit_status_under_file_size_limit(
      records.size() * kWalFrameBytes / 2, [&] {
        auto miner = make_miner("sharded", test_cfg(), trace().dict, opts);
        std::size_t i = 0;
        try {
          for (; i < records.size(); i += kBatch)
            miner->observe_batch(batch(i));
          return 1;
        } catch (const std::system_error& e) {
          if (e.code() != std::errc::file_too_large) return 5;
        }
        try {
          miner->observe_batch(batch(i));
        } catch (const std::system_error&) {
          return 0;
        }
        return 3;
      });
  ASSERT_EQ(status, 0) << kWalFailureCodes;
  expect_recovers_to_durable_prefix(dir.str());
}

// The group-sync thread's half of the same contract: one commit group
// fits in the stdio buffer, so only that thread's flush writes to the
// file, and it hits the limit. Appends of no records do no I/O of their
// own, yet one must rethrow the thread's EFBIG, and so must the call after
// it. The directory keeps the five records that fit.
TEST(PersistReopen, WalSyncFailureStopsIngest) {
  TempDir dir("persist_wal_sync_efbig");
  constexpr std::size_t kGroup = 8;
  MinerOptions opts = persist_opts(dir.str());
  opts.wal_group_commit = kGroup;

  const int status = exit_status_under_file_size_limit(
      5 * kWalFrameBytes + 40, [&] {
        auto miner = make_miner("sharded", test_cfg(), trace().dict, opts);
        miner->observe_batch(
            std::span<const TraceRecord>(trace().records.data(), kGroup));
        const std::span<const TraceRecord> none;
        bool failed = false;
        for (int tries = 0; tries < 10000 && !failed; ++tries) {
          try {
            miner->observe_batch(none);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          } catch (const std::system_error& e) {
            if (e.code() != std::errc::file_too_large) return 5;
            failed = true;
          }
        }
        if (!failed) return 1;
        try {
          miner->observe_batch(none);
        } catch (const std::system_error&) {
          return 0;
        }
        return 3;
      });
  ASSERT_EQ(status, 0) << kWalFailureCodes;
  expect_recovers_to_durable_prefix(dir.str());
  EXPECT_EQ(fs::file_size(dir.str() + "/wal.0"), 5 * kWalFrameBytes);
}

// Regression: flush() did not touch the WAL, and the destructor's final
// sync is best effort, so a commit group that never closed could fail to
// reach the disk with no error anywhere. With commit groups of 1000
// records, the 40 ingested records wait in the stdio buffer until flush()
// writes them, and a limit of 20 frames stops that write halfway: flush()
// must throw EFBIG, and the directory keeps the 20 records that fit.
TEST(PersistReopen, FlushReportsAFailedWalSync) {
  TempDir dir("persist_flush_efbig");
  MinerOptions opts = persist_opts(dir.str());
  opts.wal_group_commit = 1000;

  const int status =
      exit_status_under_file_size_limit(20 * kWalFrameBytes, [&] {
        auto miner = make_miner("sharded", test_cfg(), trace().dict, opts);
        miner->observe_batch(
            std::span<const TraceRecord>(trace().records.data(), 40));
        try {
          miner->flush();
        } catch (const std::system_error& e) {
          return e.code() == std::errc::file_too_large ? 0 : 5;
        }
        return 1;
      });
  ASSERT_EQ(status, 0) << kWalFailureCodes;
  expect_recovers_to_durable_prefix(dir.str());
  EXPECT_EQ(fs::file_size(dir.str() + "/wal.0"), 20 * kWalFrameBytes);
}

// --------------------------------------------------- kill-and-recover ----

/// Forks a child that ingests the trace on repeat (single producer, so WAL
/// order is trace order) into `backend` with persistence in `dir`, until
/// the parent SIGKILLs it mid-WAL-append.
pid_t spawn_ingest_child(const char* backend, const std::string& dir) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  {
    auto miner =
        make_miner(backend, test_cfg(), trace().dict, persist_opts(dir));
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

/// The crash differential: kill mid-append, read
/// the durable record count, replay exactly that prefix of the (repeated)
/// trace into a fresh reference miner, and demand byte-identical queries
/// from the recovered miner.
void run_kill_and_recover(const char* backend) {
  (void)trace();  // build the trace before forking
  TempDir dir(std::string("persist_kill_") + backend);
  const pid_t child = spawn_ingest_child(backend, dir.str());
  ASSERT_GT(child, 0);
  kill_after_first_checkpoint(child, dir.str());

  const persist::Recovery rec =
      persist::recover_dir(dir.str(), test_cfg(), trace().dict.get());
  const std::uint64_t durable = rec.checkpoint_seq + rec.tail.size();
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

}  // namespace
}  // namespace farmer
