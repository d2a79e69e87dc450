// Differential gate for the parallel shard-disjoint apply path: every
// backend's observe_batch(), at every FARMER_APPLY_THREADS setting, must
// build the byte-identical model a per-record serial observe() builds.
//
// The parallelism argument is structural — records are partitioned by the
// routing hash (shard_of), slices preserve per-shard record order, and
// shards share no mutable state — so the gate compares *bits*, not
// tolerances: every float on the query surface via std::bit_cast and the
// full serialized per-shard model blobs byte-for-byte. A scheduling leak
// (cross-shard write, reordered slice, dropped record) diverges one of
// these with high probability on a multi-tenant stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/miner_factory.hpp"
#include "core/sharded_farmer.hpp"
#include "persist/checkpoint.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

// A merged two-tenant stream: interleaved tenants exercise the routing
// hash across distinct process/user token populations, so shard slices
// are non-trivial at every lane count.
MultiTenantTrace tenant_trace(std::uint64_t seed) {
  constexpr TraceKind kKinds[] = {TraceKind::kHP, TraceKind::kINS};
  return make_multi_tenant_trace(kKinds, seed, 0.02);
}

void chunked_batches(CorrelationMiner& miner,
                     std::span<const TraceRecord> records,
                     std::size_t chunk) {
  for (std::size_t i = 0; i < records.size(); i += chunk) {
    const std::size_t n = std::min(chunk, records.size() - i);
    miner.observe_batch(records.subspan(i, n));
  }
  miner.flush();
}

// Bitwise comparison of the whole query surface: access counts,
// Correlator-List snapshots, and the pairwise degree/similarity/frequency
// grid (strided — the full cross product is quadratic in files).
void expect_same_query_surface(const CorrelationMiner& ref,
                               const CorrelationMiner& got,
                               std::uint32_t files, const std::string& what) {
  for (std::uint32_t f = 0; f < files; ++f) {
    const FileId id(f);
    ASSERT_EQ(ref.access_count(id), got.access_count(id))
        << what << ": file " << f;
    const CorrelatorView a = ref.snapshot(id);
    const CorrelatorView b = got.snapshot(id);
    ASSERT_EQ(a.size(), b.size()) << what << ": file " << f;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].file, b[i].file)
          << what << ": file " << f << " slot " << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i].degree),
                std::bit_cast<std::uint32_t>(b[i].degree))
          << what << ": file " << f << " slot " << i;
    }
  }
  for (std::uint32_t a = 0; a < files; a += 13) {
    for (std::uint32_t b = 0; b < files; b += 31) {
      const FileId fa(a), fb(b);
      ASSERT_EQ(
          std::bit_cast<std::uint64_t>(ref.correlation_degree(fa, fb)),
          std::bit_cast<std::uint64_t>(got.correlation_degree(fa, fb)))
          << what << ": degree " << a << "," << b;
      ASSERT_EQ(
          std::bit_cast<std::uint64_t>(ref.semantic_similarity(fa, fb)),
          std::bit_cast<std::uint64_t>(got.semantic_similarity(fa, fb)))
          << what << ": similarity " << a << "," << b;
      ASSERT_EQ(
          std::bit_cast<std::uint64_t>(ref.access_frequency(fa, fb)),
          std::bit_cast<std::uint64_t>(got.access_frequency(fa, fb)))
          << what << ": frequency " << a << "," << b;
    }
  }
}

void expect_same_shard_blobs(const ShardedFarmer& ref,
                             const ShardedFarmer& got,
                             const std::string& what) {
  ASSERT_EQ(ref.shard_count(), got.shard_count()) << what;
  for (std::size_t s = 0; s < ref.shard_count(); ++s)
    ASSERT_EQ(persist::serialize_shard(ref.shard(s)),
              persist::serialize_shard(got.shard(s)))
        << what << ": shard " << s;
}

class ParallelApplyDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

// "sharded": batches through 1/2/4 apply lanes vs one record at a time
// through observe() on a serial twin. Query surface AND serialized
// per-shard blobs must match bit for bit.
TEST_P(ParallelApplyDifferential, ShardedBatchMatchesSerialObserve) {
  const MultiTenantTrace mt = tenant_trace(GetParam());
  const FarmerConfig cfg;
  MinerOptions serial;
  serial.shards = 4;
  serial.apply_threads = 1;
  const auto ref = make_miner("sharded", cfg, mt.trace.dict, serial);
  for (const TraceRecord& r : mt.trace.records) ref->observe(r);
  const auto* ref_sharded = dynamic_cast<const ShardedFarmer*>(ref.get());
  ASSERT_NE(ref_sharded, nullptr);

  const auto files = static_cast<std::uint32_t>(mt.trace.dict->files.size());
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    MinerOptions opts = serial;
    opts.apply_threads = lanes;
    const auto miner = make_miner("sharded", cfg, mt.trace.dict, opts);
    chunked_batches(*miner, mt.trace.records, /*chunk=*/97);
    const std::string what = "sharded x" + std::to_string(lanes);
    expect_same_query_surface(*ref, *miner, files, what);
    const auto* got = dynamic_cast<const ShardedFarmer*>(miner.get());
    ASSERT_NE(got, nullptr);
    expect_same_shard_blobs(*ref_sharded, *got, what);
    EXPECT_EQ(miner->stats().requests, mt.trace.records.size()) << what;
    EXPECT_EQ(miner->stats().apply_parallel_records,
              lanes > 1 ? mt.trace.records.size() : 0u)
        << what;
  }
}

// "farmer": the single-shard backend has no parallel path, but its
// observe_batch runs the same rewritten kernel — batches must equal
// record-at-a-time ingestion exactly.
TEST_P(ParallelApplyDifferential, FarmerBatchMatchesSerialObserve) {
  const MultiTenantTrace mt = tenant_trace(GetParam());
  const FarmerConfig cfg;
  const auto ref = make_miner("farmer", cfg, mt.trace.dict);
  for (const TraceRecord& r : mt.trace.records) ref->observe(r);
  const auto batched = make_miner("farmer", cfg, mt.trace.dict);
  chunked_batches(*batched, mt.trace.records, /*chunk=*/97);
  const auto files = static_cast<std::uint32_t>(mt.trace.dict->files.size());
  expect_same_query_surface(*ref, *batched, files, "farmer");
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, ParallelApplyDifferential,
                         ::testing::Values(7u, 23u, 61u));

}  // namespace
}  // namespace farmer
