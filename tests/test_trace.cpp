// Tests for the trace substrate: synthetic generators, profiles, and I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <vector>

#include "core/farmer.hpp"
#include "persist/checkpoint.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stream.hpp"

namespace farmer {
namespace {

WorkloadProfile tiny_hp() {
  auto p = WorkloadProfile::hp().scaled(0.02);
  return p;
}

TEST(Generator, DeterministicForSeed) {
  const Trace a = generate_trace(tiny_hp(), 42);
  const Trace b = generate_trace(tiny_hp(), 42);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].timestamp, b.records[i].timestamp) << i;
    EXPECT_EQ(a.records[i].file, b.records[i].file) << i;
    EXPECT_EQ(a.records[i].process, b.records[i].process) << i;
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const Trace a = generate_trace(tiny_hp(), 1);
  const Trace b = generate_trace(tiny_hp(), 2);
  bool any_diff = a.records.size() != b.records.size();
  for (std::size_t i = 0; !any_diff && i < a.records.size(); ++i)
    any_diff = a.records[i].file != b.records[i].file;
  EXPECT_TRUE(any_diff);
}

TEST(Generator, TimestampsNonDecreasing) {
  const Trace t = generate_trace(tiny_hp(), 7);
  for (std::size_t i = 1; i < t.records.size(); ++i)
    EXPECT_LE(t.records[i - 1].timestamp, t.records[i].timestamp) << i;
}

TEST(Generator, RecordsReferenceValidFiles) {
  const Trace t = generate_trace(tiny_hp(), 7);
  ASSERT_GT(t.records.size(), 0u);
  for (const auto& r : t.records) {
    ASSERT_TRUE(r.file.valid());
    ASSERT_LT(r.file.value(), t.dict->files.size());
    EXPECT_TRUE(r.user_token.valid());
    EXPECT_TRUE(r.process_token.valid());
    EXPECT_TRUE(r.host_token.valid());
    EXPECT_TRUE(r.dev_token.valid());
    EXPECT_TRUE(r.fid_token.valid());
  }
}

TEST(Generator, HpHasPaths) {
  const Trace t = generate_trace(tiny_hp(), 7);
  EXPECT_TRUE(t.has_paths);
  std::size_t with_path = 0;
  for (const auto& r : t.records)
    if (r.path.valid()) ++with_path;
  EXPECT_EQ(with_path, t.records.size());
}

TEST(Generator, InsAndResLackPaths) {
  for (auto kind : {TraceKind::kINS, TraceKind::kRES}) {
    const Trace t = make_paper_trace(kind, 5, 0.02);
    EXPECT_FALSE(t.has_paths);
    for (const auto& r : t.records) EXPECT_FALSE(r.path.valid());
  }
}

TEST(Generator, LlnlJobModeProducesJobsAndManyFiles) {
  auto p = WorkloadProfile::llnl().scaled(0.05);
  const Trace t = generate_trace(p, 11);
  ASSERT_GT(t.records.size(), 0u);
  std::set<std::uint32_t> jobs;
  for (const auto& r : t.records)
    if (r.job.valid()) jobs.insert(r.job.value());
  EXPECT_GT(jobs.size(), 1u);
  // Per-rank checkpoint files dominate the namespace.
  EXPECT_GT(t.file_count(), p.jobs * p.ranks_per_job);
}

TEST(Generator, GroundTruthGroupsPopulated) {
  const Trace t = generate_trace(tiny_hp(), 7);
  std::size_t grouped = 0;
  for (const auto& f : t.dict->files)
    if (f.group != kNoGroup) ++grouped;
  EXPECT_GT(grouped, 0u);
}

TEST(Generator, FileSizesWithinClamp) {
  const Trace t = generate_trace(tiny_hp(), 7);
  for (const auto& f : t.dict->files) {
    EXPECT_GE(f.size_bytes, 512u);
    EXPECT_LE(f.size_bytes, 64u * 1024 * 1024);
  }
}

TEST(Generator, ScaledProfileShrinksVolume) {
  const Trace big = generate_trace(WorkloadProfile::hp().scaled(0.05), 3);
  const Trace small = generate_trace(WorkloadProfile::hp().scaled(0.01), 3);
  EXPECT_GT(big.records.size(), small.records.size());
  EXPECT_GT(big.file_count(), small.file_count());
}

TEST(Generator, InterleavingPresent) {
  // Concurrency must interleave sessions: somewhere two adjacent records
  // come from different processes.
  const Trace t = generate_trace(tiny_hp(), 7);
  bool interleaved = false;
  for (std::size_t i = 1; i < t.records.size() && !interleaved; ++i)
    interleaved = t.records[i].process != t.records[i - 1].process;
  EXPECT_TRUE(interleaved);
}

TEST(Generator, PaperTraceFactoryCoversAllKinds) {
  for (auto kind :
       {TraceKind::kLLNL, TraceKind::kINS, TraceKind::kRES, TraceKind::kHP}) {
    const Trace t = make_paper_trace(kind, 1, 0.02);
    EXPECT_EQ(t.kind, kind);
    EXPECT_GT(t.records.size(), 0u) << trace_kind_name(kind);
  }
}

TEST(TraceKindName, AllNamed) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kLLNL), "LLNL");
  EXPECT_STREQ(trace_kind_name(TraceKind::kINS), "INS");
  EXPECT_STREQ(trace_kind_name(TraceKind::kRES), "RES");
  EXPECT_STREQ(trace_kind_name(TraceKind::kHP), "HP");
}

TEST(TraceKindName, ParseInvertsTheFourPaperNames) {
  for (const TraceKind kind :
       {TraceKind::kLLNL, TraceKind::kINS, TraceKind::kRES, TraceKind::kHP})
    EXPECT_EQ(parse_trace_kind(trace_kind_name(kind)), kind);
  // Exact match only: another case, a prefix or extension, the synthetic
  // kind's name or nothing at all names no trace.
  for (const char* name : {"llnl", "Hp", "HPX", "IN", "CUSTOM", ""})
    EXPECT_FALSE(parse_trace_kind(name).has_value()) << '"' << name << '"';
}

TEST(Dictionary, PathStringRebuilds) {
  TraceDictionary d;
  SmallVector<TokenId, 8> comps;
  comps.push_back(d.tokens.intern("home"));
  comps.push_back(d.tokens.intern("user1"));
  const PathId p = d.add_path(std::move(comps));
  EXPECT_EQ(d.path_string(p), "/home/user1");
  EXPECT_EQ(d.path_string(PathId()), "");
}

// ------------------------------------------------------------ trace I/O --

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // ctest runs each test as its own process, concurrently — the path must
  // be per-process unique or parallel tests clobber each other's files.
  std::string path_ = ::testing::TempDir() + "farmer_trace_test_" +
                      std::to_string(::getpid()) + ".bin";
};

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const Trace t = generate_trace(tiny_hp(), 99);
  write_trace_binary(t, path_);
  const Trace u = read_trace_binary(path_);
  EXPECT_EQ(u.name, t.name);
  EXPECT_EQ(u.kind, t.kind);
  EXPECT_EQ(u.has_paths, t.has_paths);
  ASSERT_EQ(u.records.size(), t.records.size());
  ASSERT_EQ(u.file_count(), t.file_count());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(u.records[i].timestamp, t.records[i].timestamp);
    EXPECT_EQ(u.records[i].file, t.records[i].file);
    EXPECT_EQ(u.records[i].user_token, t.records[i].user_token);
  }
  // Dictionary strings survive.
  for (std::size_t i = 0; i < t.dict->tokens.size(); ++i)
    EXPECT_EQ(u.dict->tokens.resolve(TokenId(static_cast<std::uint32_t>(i))),
              t.dict->tokens.resolve(TokenId(static_cast<std::uint32_t>(i))));
}

TEST_F(TraceIoTest, RejectsGarbage) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)read_trace_binary(path_), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_binary("/nonexistent/dir/t.bin"),
               std::runtime_error);
}

TEST(TraceTsv, WritesHeaderAndRows) {
  const Trace t = generate_trace(tiny_hp(), 1);
  std::ostringstream os;
  write_trace_tsv(t, os, 5);
  const std::string out = os.str();
  EXPECT_NE(out.find("timestamp_us"), std::string::npos);
  // 1 header + 5 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

// ----------------------------------------------------- multi-tenant merge --

constexpr TraceKind kTwoTenants[] = {TraceKind::kHP, TraceKind::kINS};

MultiTenantTrace tiny_multi_tenant() {
  return make_multi_tenant_trace(kTwoTenants, 42, 0.02);
}

TEST(MultiTenantTrace_, ContiguousFileRangesCoverTheDictionary) {
  const MultiTenantTrace mt = tiny_multi_tenant();
  ASSERT_EQ(mt.tenant_count(), 2u);
  ASSERT_EQ(mt.file_begin.size(), 3u);
  EXPECT_EQ(mt.file_begin.front(), 0u);
  EXPECT_EQ(mt.file_begin.back(), mt.trace.file_count());
  EXPECT_LT(mt.file_begin[0], mt.file_begin[1]);
  EXPECT_LT(mt.file_begin[1], mt.file_begin[2]);
  // tenant_of agrees with the ranges at both sides of the boundary.
  EXPECT_EQ(mt.tenant_of(FileId(0)), 0u);
  EXPECT_EQ(mt.tenant_of(FileId(mt.file_begin[1] - 1)), 0u);
  EXPECT_EQ(mt.tenant_of(FileId(mt.file_begin[1])), 1u);
  EXPECT_EQ(
      mt.tenant_of(FileId(static_cast<std::uint32_t>(
          mt.trace.file_count() - 1))),
      1u);
}

TEST(MultiTenantTrace_, RecordsInterleaveButStayInTenantRanges) {
  const MultiTenantTrace mt = tiny_multi_tenant();
  ASSERT_GT(mt.trace.records.size(), 0u);
  std::set<std::uint32_t> tenants_seen;
  for (std::size_t i = 0; i < mt.trace.records.size(); ++i) {
    const auto& r = mt.trace.records[i];
    ASSERT_LT(r.file.value(), mt.trace.file_count()) << i;
    tenants_seen.insert(mt.tenant_of(r.file));
    if (i > 0) {
      EXPECT_LE(mt.trace.records[i - 1].timestamp, r.timestamp)
          << "not time-sorted at " << i;
    }
  }
  EXPECT_EQ(tenants_seen.size(), 2u) << "one tenant produced no records";
}

// Tenants must share nothing: users, processes, ground-truth groups and
// every interned token are disjoint, so any cross-tenant correlation a
// miner later reports is a mining artifact by construction.
TEST(MultiTenantTrace_, TenantIdentitySpacesAreDisjoint) {
  const MultiTenantTrace mt = tiny_multi_tenant();
  std::array<std::set<std::uint32_t>, 2> users, procs, toks;
  std::array<std::set<std::uint32_t>, 2> groups;
  for (const auto& r : mt.trace.records) {
    const std::uint32_t t = mt.tenant_of(r.file);
    users[t].insert(r.user.value());
    procs[t].insert(r.process.value());
    toks[t].insert(r.user_token.value());
    toks[t].insert(r.process_token.value());
    toks[t].insert(r.host_token.value());
    toks[t].insert(r.dev_token.value());
    toks[t].insert(r.fid_token.value());
    toks[t].insert(r.program_token.value());
  }
  for (std::uint32_t f = 0; f < mt.trace.file_count(); ++f) {
    const FileMeta& m = mt.trace.dict->files[f];
    if (m.group != kNoGroup) groups[mt.tenant_of(FileId(f))].insert(m.group);
  }
  const auto disjoint = [](const std::set<std::uint32_t>& a,
                           const std::set<std::uint32_t>& b) {
    std::vector<std::uint32_t> common;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(common));
    return common.empty();
  };
  EXPECT_TRUE(disjoint(users[0], users[1]));
  EXPECT_TRUE(disjoint(procs[0], procs[1]));
  EXPECT_TRUE(disjoint(toks[0], toks[1]));
  EXPECT_TRUE(disjoint(groups[0], groups[1]));
}

TEST(MultiTenantTrace_, DeterministicForSeed) {
  const MultiTenantTrace a = tiny_multi_tenant();
  const MultiTenantTrace b = tiny_multi_tenant();
  ASSERT_EQ(a.trace.records.size(), b.trace.records.size());
  ASSERT_EQ(a.file_begin, b.file_begin);
  for (std::size_t i = 0; i < a.trace.records.size(); ++i) {
    EXPECT_EQ(a.trace.records[i].file, b.trace.records[i].file) << i;
    EXPECT_EQ(a.trace.records[i].timestamp, b.trace.records[i].timestamp)
        << i;
    EXPECT_EQ(a.trace.records[i].process, b.trace.records[i].process) << i;
  }
}

TEST(MultiTenantTrace_, HasPathsIsTheConjunction) {
  // HP has paths, INS does not: the merged stream must not claim paths.
  const MultiTenantTrace mixed = tiny_multi_tenant();
  EXPECT_FALSE(mixed.trace.has_paths);
  constexpr TraceKind kBothHp[] = {TraceKind::kHP, TraceKind::kHP};
  const MultiTenantTrace hp_only = make_multi_tenant_trace(kBothHp, 42, 0.02);
  EXPECT_TRUE(hp_only.trace.has_paths);
}

// ------------------------------------------------------- format versions --

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// Expects `fn` to throw a std::runtime_error whose message contains
/// `what` — pinning which check fired, not just that something threw.
template <typename Fn>
void expect_error(Fn&& fn, std::string_view what) {
  try {
    fn();
    ADD_FAILURE() << "expected an error containing \"" << what << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string_view(e.what()).find(what), std::string_view::npos)
        << e.what();
  }
}

/// A trace whose single path has more than 255 components — more than a
/// u8 component count can hold, so the codec must carry u32 counts.
Trace deep_path_trace() {
  Trace t;
  t.name = "deep";
  t.kind = TraceKind::kCustom;
  t.has_paths = true;
  t.dict = std::make_shared<TraceDictionary>();
  TraceDictionary& d = *t.dict;
  SmallVector<TokenId, 8> comps;
  for (int i = 0; i < 300; ++i)
    comps.push_back(d.tokens.intern("d" + std::to_string(i)));
  const PathId deep = d.add_path(std::move(comps));
  FileMeta m;
  m.path = deep;
  m.dev = d.tokens.intern("dev0");
  m.fid = d.tokens.intern("fid0");
  d.files.push_back(m);
  TraceRecord r;
  r.file = FileId(0);
  r.path = deep;
  r.dev_token = m.dev;
  r.fid_token = m.fid;
  t.records.push_back(r);
  return t;
}

TEST_F(TraceIoTest, V3RoundTripsDeepPaths) {
  const Trace t = deep_path_trace();
  write_trace_binary(t, path_);
  const Trace u = read_trace_binary(path_);
  ASSERT_EQ(u.dict->paths.size(), 1u);
  EXPECT_EQ(u.dict->paths[0].size(), 300u);
  EXPECT_EQ(u.dict->path_string(PathId(0)), t.dict->path_string(PathId(0)));
}

/// Small handcrafted trace: a few hundred bytes, so the fuzz below can
/// afford every truncation length and every byte flip.
Trace tiny_fuzz_trace() {
  Trace t;
  t.name = "fuzz";
  t.kind = TraceKind::kCustom;
  t.has_paths = true;
  t.dict = std::make_shared<TraceDictionary>();
  TraceDictionary& d = *t.dict;
  const TokenId user = d.tokens.intern("alice");
  const TokenId dev = d.tokens.intern("dev0");
  SmallVector<TokenId, 8> comps;
  comps.push_back(d.tokens.intern("home"));
  comps.push_back(user);
  const PathId p = d.add_path(std::move(comps));
  for (std::uint32_t f = 0; f < 3; ++f) {
    FileMeta m;
    m.path = p;
    m.dev = dev;
    m.fid = d.tokens.intern("fid" + std::to_string(f));
    d.files.push_back(m);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    TraceRecord r;
    r.timestamp = i;
    r.file = FileId(i % 3);
    r.path = p;
    r.user_token = user;
    r.dev_token = dev;
    t.records.push_back(r);
  }
  return t;
}

/// Writes `t` as v3, then overwrites the header word at `offset` (see the
/// layout in trace_stream.hpp) with `value`.
template <typename T>
void write_patched_v3(const Trace& t, const std::string& path,
                      std::size_t offset, T value) {
  write_trace_binary(t, path);
  std::string bytes = slurp(path);
  ASSERT_LE(offset + sizeof value, bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  spit(path, bytes);
}

/// The v2 stream format is retired: a file claiming version 2 is refused
/// by name rather than parsed.
TEST_F(TraceIoTest, RejectsRetiredVersion2) {
  write_patched_v3(tiny_fuzz_trace(), path_, /*offset=*/4, std::uint32_t{2});
  expect_error([&] { (void)read_trace_binary(path_); },
               "unsupported trace version");
}

// ------------------------------------------------- corrupt-input hardening --
// The whole-file checksum rejects a flipped byte before these checks run, so
// the fuzz tests below never reach them; they are driven directly through
// the public decoders. Checkpoints decode dictionaries through the same code.

void append32(std::string& s, std::uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), 4);
}

void expect_dictionary_rejected(const std::string& blob,
                                std::string_view what) {
  expect_error(
      [&] {
        ByteReader in(blob, "dictionary");
        TraceDictionary d;
        decode_dictionary(in, d);
      },
      what);
}

/// Every huge decoded count must be rejected against the bytes actually
/// present *before* any allocation — a bit-flipped count must not reserve()
/// gigabytes.
TEST_F(TraceIoTest, HugeTokenCountThrowsWithoutAllocating) {
  std::string s;
  append32(s, 0xFFFFFF00u);  // token count far beyond the blob size
  expect_dictionary_rejected(s, "token count exceeds");
}

TEST_F(TraceIoTest, HugeStringLengthThrowsWithoutAllocating) {
  std::string s;
  append32(s, 1);            // one token...
  append32(s, 0xFFFFFF00u);  // ...whose length exceeds the blob
  expect_dictionary_rejected(s, "truncated");
}

TEST_F(TraceIoTest, HugeRecordCountThrowsWithoutAllocating) {
  // Header [8] is the u64 record count.
  write_patched_v3(tiny_fuzz_trace(), path_, /*offset=*/8,
                   std::uint64_t{0x00FFFFFFFFFFFFFFull});
  expect_error([&] { (void)read_trace_binary(path_); },
               "record count exceeds");
}

TEST_F(TraceIoTest, OutOfRangeKindThrows) {
  EXPECT_EQ(validate_trace_kind(4), TraceKind::kCustom);
  EXPECT_THROW((void)validate_trace_kind(9), std::runtime_error);
}

TEST_F(TraceIoTest, PathComponentTokenOutOfRangeThrows) {
  std::string s;
  append32(s, 0);  // no tokens...
  append32(s, 1);  // ...but one path
  append32(s, 1);  // with one component
  append32(s, 5);  // referencing token 5
  append32(s, 0);  // files
  expect_dictionary_rejected(s, "path component token id out of range");
}

TEST_F(TraceIoTest, FileMetaPathOutOfRangeThrows) {
  std::string s;
  append32(s, 0);  // tokens
  append32(s, 0);  // paths
  append32(s, 1);  // one file
  append32(s, 3);  // whose path id indexes an empty path table
  append32(s, 0xFFFFFFFFu);  // dev: invalid is allowed
  append32(s, 0xFFFFFFFFu);  // fid: invalid is allowed
  append32(s, 0);            // group
  append32(s, 0);            // size
  s.push_back(0);            // read_only
  expect_dictionary_rejected(s, "file meta path id out of range");
}

TEST_F(TraceIoTest, RecordFileIdOutOfRangeThrows) {
  const TraceDictionary no_files;
  TraceRecord r;
  r.file = FileId(0);  // file id 0 has no meta row
  expect_error([&] { validate_record(r, no_files); },
               "record file id out of range");
}

// --------------------------------------------------- v3 corruption fuzz --

/// Acceptance criterion: every truncation of a v3 trace throws — none
/// crash, none allocate beyond the file size. Truncations shorter than the
/// header die on the size check; longer ones on the whole-file checksum
/// (the header's file_size no longer matches the bytes on disk).
TEST_F(TraceIoTest, TruncationAtEveryLengthThrows) {
  write_trace_binary(tiny_fuzz_trace(), path_);
  const std::string bytes = slurp(path_);
  ASSERT_GT(bytes.size(), kTraceV3HeaderBytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(path_, std::string_view(bytes).substr(0, len));
    EXPECT_THROW((void)TraceReader(path_), std::runtime_error)
        << "truncated to " << len << " bytes";
  }
}

/// Every single-byte flip must throw: header flips hit the explicit
/// consistency checks, payload flips hit the checksum, and a flip of the
/// stored checksum itself mismatches the recomputed one.
TEST_F(TraceIoTest, ByteFlipAtEveryOffsetThrows) {
  write_trace_binary(tiny_fuzz_trace(), path_);
  const std::string bytes = slurp(path_);
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::string corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0xFF);
    spit(path_, corrupt);
    EXPECT_THROW((void)TraceReader(path_), std::runtime_error)
        << "flipped byte at offset " << off;
  }
}

// ------------------------------------------------------ streamed pipeline --

class StreamedPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StreamedTraceSpec two_tenant_spec(std::size_t rounds = 1) const {
    StreamedTraceSpec spec;
    spec.tenants = {TraceKind::kHP, TraceKind::kINS};
    spec.seed = 42;
    spec.scale = 0.02;
    spec.rounds = rounds;
    return spec;
  }

  // Per-process unique for the same reason as TraceIoTest::path_.
  std::string dir_ = ::testing::TempDir() + "farmer_streamed_test_" +
                     std::to_string(::getpid());
};

/// The tentpole differential, in its strongest form: streamed generation
/// plus external k-way merge produces a v3 file that is *byte-identical*
/// to writing make_multi_tenant_trace's in-memory result — same records in
/// the same order, same dictionary, same name, same header.
TEST_F(StreamedPipelineTest, MergedFileIsByteIdenticalToInMemoryTrace) {
  const MultiTenantTrace mem = tiny_multi_tenant();
  const StreamedMultiTenantTrace streamed =
      stream_multi_tenant_trace(two_tenant_spec(), dir_);
  EXPECT_EQ(streamed.name, mem.trace.name);
  EXPECT_EQ(streamed.file_begin, mem.file_begin);
  EXPECT_EQ(streamed.has_paths, mem.trace.has_paths);
  ASSERT_EQ(streamed.records_written, mem.trace.records.size());

  const std::string merged_path = dir_ + "/merged.ftrace";
  const std::uint64_t merged =
      merge_trace_streams(streamed.part_paths, merged_path, streamed.name);
  EXPECT_EQ(merged, streamed.records_written);

  const std::string mem_path = dir_ + "/in_memory.ftrace";
  write_trace_binary(mem.trace, mem_path);
  EXPECT_EQ(slurp(merged_path), slurp(mem_path));
}

/// The acceptance-criteria phrasing of the same differential: feeding the
/// mmap'd merged stream to a miner yields a byte-identical model to feeding
/// the in-memory trace (persist::serialize_shard is the canonical full
/// serialization of a shard's state).
TEST_F(StreamedPipelineTest, ReplayedModelIsByteIdenticalToInMemoryIngest) {
  const MultiTenantTrace mem = tiny_multi_tenant();
  const StreamedMultiTenantTrace streamed =
      stream_multi_tenant_trace(two_tenant_spec(), dir_);
  const std::string merged_path = dir_ + "/merged.ftrace";
  (void)merge_trace_streams(streamed.part_paths, merged_path, streamed.name);

  FarmerConfig cfg;
  cfg.attributes = mem.trace.has_paths ? AttributeMask::all_with_path()
                                       : AttributeMask::all_with_fileid();
  Farmer in_memory(cfg, mem.trace.dict);
  in_memory.observe_batch(mem.trace.records);

  const TraceReader reader(merged_path);
  Farmer replayed(cfg, reader.dict());
  replayed.observe_batch(reader.records());

  EXPECT_EQ(persist::serialize_shard(in_memory),
            persist::serialize_shard(replayed));
}

TEST_F(StreamedPipelineTest, ReaderExposesTraceFacts) {
  const StreamedMultiTenantTrace streamed =
      stream_multi_tenant_trace(two_tenant_spec(), dir_);
  const std::string merged_path = dir_ + "/merged.ftrace";
  (void)merge_trace_streams(streamed.part_paths, merged_path, streamed.name);
  const TraceReader reader(merged_path);
  EXPECT_EQ(reader.name(), streamed.name);
  EXPECT_EQ(reader.kind(), TraceKind::kCustom);  // kHP + kINS mix
  EXPECT_EQ(reader.has_paths(), streamed.has_paths);
  EXPECT_EQ(reader.records().size(), streamed.records_written);
  const Trace t = reader.materialize();
  EXPECT_EQ(t.records.size(), streamed.records_written);
  EXPECT_EQ(t.file_count(), streamed.file_begin.back());
}

TEST_F(StreamedPipelineTest, MultiRoundScalesVolumeAndStaysSorted) {
  const StreamedMultiTenantTrace one =
      stream_multi_tenant_trace(two_tenant_spec(1), dir_);
  const std::string one_merged = dir_ + "/merged1.ftrace";
  (void)merge_trace_streams(one.part_paths, one_merged, one.name);

  const StreamedMultiTenantTrace three =
      stream_multi_tenant_trace(two_tenant_spec(3), dir_);
  EXPECT_GT(three.records_written, 2 * one.records_written);

  const std::string merged_path = dir_ + "/merged3.ftrace";
  (void)merge_trace_streams(three.part_paths, merged_path, three.name);
  const TraceReader reader(merged_path);
  ASSERT_EQ(reader.records().size(), three.records_written);
  SimTime prev = 0;
  for (const TraceRecord& r : reader.records()) {
    EXPECT_LE(prev, r.timestamp);
    prev = r.timestamp;
    ASSERT_LT(r.file.value(), three.file_begin.back());
  }
}

TEST_F(StreamedPipelineTest, MergeRejectsMismatchedDictionaries) {
  const std::string a = dir_ + "/a.ftrace";
  const std::string b = dir_ + "/b.ftrace";
  write_trace_binary(generate_trace(tiny_hp(), 1), a);
  write_trace_binary(generate_trace(tiny_hp(), 2), b);
  const std::vector<std::string> inputs = {a, b};
  EXPECT_THROW((void)merge_trace_streams(inputs, dir_ + "/out.ftrace", "x"),
               std::runtime_error);
}

TEST_F(StreamedPipelineTest, MergeRejectsEmptyInputs) {
  EXPECT_THROW((void)merge_trace_streams({}, dir_ + "/out.ftrace", "x"),
               std::invalid_argument);
}

}  // namespace
}  // namespace farmer
