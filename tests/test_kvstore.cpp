// Tests for the Berkeley-DB stand-in: the persistent log store.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "kvstore/log_store.hpp"

namespace farmer {
namespace {

// ------------------------------------------------------------- LogStore --

class LogStoreTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test file name: ctest runs each test as its own process, so a
  // shared name would race under a parallel ctest invocation.
  std::string path_ =
      ::testing::TempDir() + "farmer_log_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".db";
};

TEST_F(LogStoreTest, PutOverwriteGet) {
  LogStore s(path_);
  s.put(1, "alpha");
  s.put(2, "beta");
  EXPECT_EQ(*s.get(1), "alpha");
  s.put(1, "gamma");
  EXPECT_EQ(*s.get(1), "gamma");
  EXPECT_EQ(*s.get(2), "beta");
  EXPECT_FALSE(s.get(3).has_value());
  EXPECT_EQ(s.size(), 2u);
}

TEST_F(LogStoreTest, PersistsAcrossReopen) {
  {
    LogStore s(path_);
    s.put(10, "ten");
    s.put(20, "twenty");
    s.put(10, "TEN");
    s.sync();
  }
  LogStore reopened(path_);
  EXPECT_EQ(reopened.recovered_records(), 3u);
  EXPECT_EQ(reopened.size(), 2u);
  ASSERT_TRUE(reopened.get(10).has_value());
  EXPECT_EQ(*reopened.get(10), "TEN");  // the later record wins
  ASSERT_TRUE(reopened.get(20).has_value());
  EXPECT_EQ(*reopened.get(20), "twenty");
}

TEST_F(LogStoreTest, RecoversFromTornTail) {
  {
    LogStore s(path_);
    s.put(1, "good");
    s.put(2, "also good");
    s.sync();
  }
  // Append garbage simulating a torn write.
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[] = {0x13, 0x37, 0x00, 0x42};
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  LogStore recovered(path_);
  EXPECT_EQ(recovered.recovered_records(), 2u);
  EXPECT_EQ(*recovered.get(1), "good");
  EXPECT_EQ(*recovered.get(2), "also good");
  // The store keeps working after truncating the torn tail.
  recovered.put(3, "new");
  recovered.sync();
  LogStore again(path_);
  EXPECT_EQ(again.size(), 3u);
}

// Regression: replay cut a torn tail by reopening the log "wb" (length 0)
// and writing the valid prefix back with an unchecked fwrite, so a failed
// write, or a crash between the two, lost records that were already
// durable. A child whose file-size limit is half the valid prefix makes
// that rewrite fail with EFBIG; repairing in place never rewrites a byte.
TEST_F(LogStoreTest, TornTailRepairKeepsEveryValidRecord) {
  constexpr std::size_t kRecords = 64;
  {
    LogStore s(path_);
    for (std::size_t i = 0; i < kRecords; ++i)
      s.put(i, "record-" + std::to_string(i));
    s.sync();
  }
  const std::uintmax_t valid_size = std::filesystem::file_size(path_);
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[] = {0x13, 0x37, 0x00, 0x42};
    ASSERT_EQ(std::fwrite(junk, 1, sizeof junk, f), sizeof junk);
    std::fclose(f);
  }

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: past the limit a write fails with EFBIG instead of raising
    // SIGXFSZ. Opening the store runs the torn-tail repair.
    std::signal(SIGXFSZ, SIG_IGN);
    const rlim_t cap = static_cast<rlim_t>(valid_size / 2);
    const rlimit lim{cap, cap};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(4);
    try {
      LogStore s(path_);
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: opening the store threw; 4: setrlimit failed";

  LogStore reopened(path_);
  EXPECT_EQ(reopened.recovered_records(), kRecords);
  EXPECT_EQ(std::filesystem::file_size(path_), valid_size);
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

// A record's stored length must be checked against the file before replay
// allocates the value: one flipped byte in the last record's length field
// would otherwise ask for up to 4 GiB, and under an address-space limit
// std::bad_alloc would leave the log unopenable. A child with 1 GiB of
// address space to spare must still recover every intact record.
TEST_F(LogStoreTest, CorruptLengthIsBoundedBeforeAllocation) {
  constexpr std::size_t kRecords = 8;
  const std::string value(100, 'v');
  {
    LogStore s(path_);
    for (std::size_t i = 0; i < kRecords; ++i) s.put(i, value);
    s.sync();
  }
  const std::uintmax_t valid_size = std::filesystem::file_size(path_);
  {
    LogStore s(path_);
    s.put(kRecords, value);
    s.sync();
  }
  {
    // Record layout: [u32 checksum][u8 op][u64 key][u32 len][value], so
    // the last record's length field sits 13 bytes past its start.
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
      recovered = LogStore(path_).recovered_records();
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(recovered == kRecords ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: opening the store threw; 3: wrong record count; "
         "4: setrlimit failed; 5: VmSize unreadable";
  EXPECT_EQ(std::filesystem::file_size(path_), valid_size);
}

TEST_F(LogStoreTest, ScanIsOrdered) {
  LogStore s(path_);
  s.put(5, "e");
  s.put(1, "a");
  s.put(3, "c");
  std::vector<std::uint64_t> keys;
  s.scan(0, UINT64_MAX, [&](std::uint64_t k, std::string_view) {
    keys.push_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST_F(LogStoreTest, EmptyValueRoundTrip) {
  {
    LogStore s(path_);
    s.put(1, "");
    s.sync();
  }
  LogStore reopened(path_);
  ASSERT_TRUE(reopened.get(1).has_value());
  EXPECT_EQ(*reopened.get(1), "");
}

TEST_F(LogStoreTest, FsyncModeRoundTrip) {
  {
    LogStore s(path_, LogStore::Durability::kFsync);
    s.put(1, "stale");
    s.put(1, "durable");
    s.put(2, "records");
    s.sync();
    s.put(3, "after");
    s.sync();
  }
  LogStore reopened(path_, LogStore::Durability::kFsync);
  EXPECT_EQ(*reopened.get(1), "durable");
  EXPECT_EQ(*reopened.get(2), "records");
  EXPECT_EQ(*reopened.get(3), "after");
}

// Torn-write fuzz: truncate a valid log at EVERY byte offset inside the
// last few records and assert reopening always recovers the longest prefix
// of fully contained records — never more, never fewer, never a crash.
TEST_F(LogStoreTest, TruncationAtEveryOffsetRecoversLongestValidPrefix) {
  // Record i is appended at offset boundaries_[i] (boundaries_[n] = EOF), so
  // a cut at byte b recovers exactly the records whose end is <= b.
  std::vector<long> boundaries;
  constexpr int kRecords = 6;
  {
    LogStore s(path_);
    for (int i = 0; i < kRecords; ++i) {
      s.put(static_cast<std::uint64_t>(i + 1),
            "value-" + std::string(static_cast<std::size_t>(i * 3), 'x'));
      s.sync();
      std::FILE* f = std::fopen(path_.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
      boundaries.push_back(std::ftell(f));
      std::fclose(f);
    }
  }
  // Read the pristine image once; every iteration rewrites a truncated copy.
  std::string image;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) image.append(buf, n);
    std::fclose(f);
  }
  ASSERT_EQ(static_cast<long>(image.size()), boundaries.back());

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
    std::size_t expect = 0;
    while (expect < boundaries.size() &&
           boundaries[expect] <= static_cast<long>(cut))
      ++expect;

    LogStore recovered(cut_path);
    EXPECT_EQ(recovered.recovered_records(), expect) << "cut at " << cut;
    for (std::size_t i = 0; i < kRecords; ++i) {
      const auto got = recovered.get(i + 1);
      if (i < expect) {
        ASSERT_TRUE(got.has_value()) << "cut at " << cut << ", key " << i + 1;
        EXPECT_EQ(*got, "value-" + std::string(i * 3, 'x'));
      } else {
        EXPECT_FALSE(got.has_value()) << "cut at " << cut << ", key "
                                      << i + 1;
      }
    }
    // The truncated store must stay appendable.
    recovered.put(99, "appended-after-recovery");
    recovered.sync();
    LogStore again(cut_path);
    EXPECT_EQ(*again.get(99), "appended-after-recovery");
  }
  std::remove(cut_path.c_str());
}

}  // namespace
}  // namespace farmer
