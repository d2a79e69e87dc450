// Tests for the MDS, OSD, the DES trace replay through the serving harness,
// and the message-passing shard tier (wire framing fuzz + transport fault
// injection).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/farmer.hpp"
#include "net/cluster_miner.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/shard_server.hpp"
#include "net/transport.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "serve/harness.hpp"
#include "storage/mds.hpp"
#include "storage/osd.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

MdsConfig fast_mds() {
  MdsConfig cfg;
  cfg.cache_capacity = 8;
  cfg.cpu_time = 10;
  cfg.db_fetch_time = 1000;
  cfg.db_fetch_jitter = 0;
  cfg.seq_fetch_time = 100;
  return cfg;
}

// ------------------------------------------------------------------ MDS --

TEST(Mds, HitIsFasterThanMiss) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  mt.access(a);
  mt.access(a);
  Simulator sim;
  NoopPredictor noop;
  MdsServer mds(sim, fast_mds(), noop);
  mds.populate(4);
  std::vector<SimTime> rts;
  const auto& recs = mt.records();
  sim.schedule_at(0, [&] {
    mds.handle_demand(recs[0], [&](SimTime rt) { rts.push_back(rt); });
  });
  sim.schedule_at(5000, [&] {
    mds.handle_demand(recs[1], [&](SimTime rt) { rts.push_back(rt); });
  });
  sim.run();
  ASSERT_EQ(rts.size(), 2u);
  EXPECT_EQ(rts[0], 1000 + 10);  // miss: disk + cpu
  EXPECT_EQ(rts[1], 10);         // hit: cpu only
}

TEST(Mds, DuplicateMissesCoalesce) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  mt.access(a);
  mt.access(a);
  Simulator sim;
  NoopPredictor noop;
  MdsServer mds(sim, fast_mds(), noop);
  mds.populate(4);
  int responses = 0;
  const auto& recs = mt.records();
  sim.schedule_at(0, [&] {
    mds.handle_demand(recs[0], [&](SimTime) { ++responses; });
    mds.handle_demand(recs[1], [&](SimTime) { ++responses; });
  });
  sim.run();
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(mds.duplicate_suppressed(), 1u);
  // Only one disk fetch happened.
  EXPECT_EQ(mds.disk().completed(), 1u);
}

TEST(Mds, PrefetchLandsInCache) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/h/u/g/a");
  const FileId b = mt.file("b", "/h/u/g/b");
  const FileId c = mt.file("c", "/h/u/g/c");
  // Teach FPA the cycle a->b->c. Capacity 1 means the successor is never
  // resident when predicted, so only a prefetch can produce the hit.
  for (int i = 0; i < 4; ++i) {
    mt.access(a);
    mt.access(b);
    mt.access(c);
  }
  FpaPredictor fpa(FarmerConfig{}, mt.dict());
  Simulator sim;
  auto cfg = fast_mds();
  cfg.cache_capacity = 1;
  MdsServer mds(sim, cfg, fpa);
  mds.populate(4);
  const auto& recs = mt.records();
  SimTime t = 0;
  for (const auto& r : recs) {
    sim.schedule_at(t, [&mds, &r] { mds.handle_demand(r, [](SimTime) {}); });
    t += 20000;
  }
  sim.run();
  EXPECT_GT(mds.prefetch_batches(), 0u);
  EXPECT_GT(mds.cache().stats().prefetch_used, 0u);
}

TEST(Mds, PopulateFillsTable) {
  Simulator sim;
  NoopPredictor noop;
  MdsServer mds(sim, fast_mds(), noop);
  mds.populate(100);
  EXPECT_EQ(mds.metadata_table().size(), 100u);
  EXPECT_TRUE(mds.metadata_table().get(99).has_value());
}

// -------------------------------------------------------------- cluster --
// Whole-trace DES replay: the trace served through serve() with no pretrain
// and no churn, on the harness's default MDS timings.

ScenarioWorkload whole_trace(Trace t) {
  ScenarioWorkload wl;
  wl.trace = std::move(t);
  return wl;
}

ScenarioSpec replay_spec(std::size_t cache_capacity, double time_scale = 1.0) {
  ScenarioSpec spec;
  spec.name = "replay";
  spec.windows = 1;
  spec.cache_capacity = cache_capacity;
  spec.time_scale = time_scale;
  return spec;
}

TEST(Cluster, EveryDemandGetsResponse) {
  const ScenarioWorkload wl =
      whole_trace(make_paper_trace(TraceKind::kHP, 3, 0.01));
  NoopPredictor noop;
  const ServingResult res = serve(replay_spec(64), wl, noop);
  EXPECT_EQ(res.response.count(), wl.trace.records.size());
  EXPECT_GT(res.response.mean(), 0.0);
}

TEST(Cluster, PrefetchingReducesLatencyOnPredictableLoad) {
  MicroTrace mt;
  // A six-file cycle against a two-entry cache: LRU always misses, while
  // accurate prefetching can stream the group ahead of the demands.
  std::vector<FileId> ring;
  for (int i = 0; i < 6; ++i)
    ring.push_back(
        mt.file("f" + std::to_string(i), "/h/u/g/f" + std::to_string(i)));
  for (int rep = 0; rep < 60; ++rep)
    for (const FileId f : ring) mt.access(f);
  const ScenarioWorkload wl = whole_trace(mt.build());
  // time_scale 5 leaves disk idle time for prefetches to run.
  ScenarioSpec spec = replay_spec(/*cache_capacity=*/2, /*time_scale=*/5.0);
  spec.prefetch_degree = 1;  // just-in-time successor; degree > capacity
                             // would evict its own prefetches

  NoopPredictor noop;
  const ServingResult lru = serve(spec, wl, noop);
  FpaPredictor fpa(FarmerConfig{}, mt.dict());
  const ServingResult far = serve(spec, wl, fpa);
  EXPECT_LT(far.response.mean(), lru.response.mean() * 0.8);
}

TEST(Cluster, TimeScaleCompressesSimulation) {
  const ScenarioWorkload wl =
      whole_trace(make_paper_trace(TraceKind::kINS, 9, 0.01));
  NoopPredictor n1, n2;
  const ServingResult m_slow =
      serve(replay_spec(/*cache_capacity=*/8), wl, n1);
  const ServingResult m_fast =
      serve(replay_spec(8, /*time_scale=*/0.5), wl, n2);
  EXPECT_LT(m_fast.sim_duration, m_slow.sim_duration);
}

// ------------------------------------------------------------------ OSD --

TEST(Osd, AllocateAndFreeRoundTrip) {
  Osd osd(1000);
  auto e1 = osd.allocate(100);
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->start, 0u);
  auto e2 = osd.allocate(200);
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e2->start, 100u);
  EXPECT_EQ(osd.allocated(), 300u);
  osd.free_extent(*e1);
  EXPECT_EQ(osd.allocated(), 200u);
}

TEST(Osd, CoalescesAdjacentFreeExtents) {
  Osd osd(1000);
  auto a = osd.allocate(100);
  auto b = osd.allocate(100);
  auto c = osd.allocate(100);
  ASSERT_TRUE(a && b && c);
  osd.free_extent(*a);
  osd.free_extent(*c);
  // c coalesces with the tail free region -> fragments: [a], [c..end].
  EXPECT_EQ(osd.free_fragments(), 2u);
  osd.free_extent(*b);
  EXPECT_EQ(osd.free_fragments(), 1u);
  EXPECT_EQ(osd.largest_free(), 1000u);
}

TEST(Osd, AllocationFailsWhenFragmented) {
  Osd osd(100);
  auto a = osd.allocate(60);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(osd.allocate(50).has_value());
  osd.free_extent(*a);
  EXPECT_TRUE(osd.allocate(100).has_value());
}

TEST(Osd, SeekDistanceSymmetric) {
  EXPECT_EQ(Osd::seek_distance(10, 50), 40u);
  EXPECT_EQ(Osd::seek_distance(50, 10), 40u);
  EXPECT_EQ(Osd::seek_distance(7, 7), 0u);
}

TEST(Osd, ZeroBlockAllocation) {
  Osd osd(10);
  auto e = osd.allocate(0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->length, 0u);
  EXPECT_EQ(osd.allocated(), 0u);
}

// ==================================================== wire-format fuzz ===
//
// The frame decoder's corruption contract: truncation at every prefix
// length and a byte flip at every offset of a valid frame must throw (or,
// for a streaming assembler, defer) cleanly — never crash, hang, or
// allocate based on an unvalidated length. The suite runs under the
// ASan/UBSan CI tier, so "cleanly" is sanitizer-checked.

using net::Frame;
using net::FrameAssembler;
using net::FrameKind;
using net::OpCode;

/// A representative valid frame with a non-trivial payload.
std::string valid_frame() {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  mt.access(a);
  mt.access(b);
  mt.access(a, "u1", "pid1");
  return net::encode_frame(FrameKind::kRequest, OpCode::kObserveBatch, 42,
                           net::encode_observe_batch(mt.records()));
}

TEST(FrameCodec, RoundTrip) {
  const std::string payload = "hello shard";
  const std::string bytes =
      net::encode_frame(FrameKind::kResponse, OpCode::kStats, 7, payload);
  EXPECT_EQ(net::announced_frame_size(bytes), bytes.size());
  const Frame f = net::decode_frame(bytes);
  EXPECT_EQ(f.kind, FrameKind::kResponse);
  EXPECT_EQ(f.op, OpCode::kStats);
  EXPECT_EQ(f.request_id, 7u);
  EXPECT_EQ(f.payload, payload);
}

TEST(FrameCodec, TruncationAtEveryPrefixLengthThrows) {
  const std::string bytes = valid_frame();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)net::decode_frame(std::string_view(bytes.data(), len)),
                 std::runtime_error)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW((void)net::decode_frame(bytes));
}

TEST(FrameCodec, ByteFlipAtEveryOffsetNeverCrashesOrOverAllocates) {
  const std::string bytes = valid_frame();
  for (const unsigned char flip : {0x01u, 0xFFu}) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      try {
        const Frame f = net::decode_frame(corrupt);
        // A flip in the request id or payload body can still frame-decode;
        // the decoded payload is bounded by what was actually present.
        EXPECT_LE(f.payload.size(), bytes.size());
        // The payload decoder must then also be corruption-safe.
        try {
          const auto records = net::decode_observe_batch(f.payload);
          EXPECT_LE(records.size() * kTraceRecordBytes, f.payload.size());
        } catch (const std::runtime_error&) {
          // Bounded rejection is the expected outcome.
        }
      } catch (const std::runtime_error&) {
      } catch (const std::invalid_argument&) {
      }
    }
  }
}

TEST(FrameCodec, AnnouncedLengthIsBoundedBeforeAllocation) {
  // Craft a header announcing an absurd payload: the decoder must reject
  // it from the 20 header bytes alone, before allocating anything.
  std::string bytes = net::encode_frame(FrameKind::kRequest, OpCode::kFlush,
                                        1, std::string_view{});
  const std::uint32_t huge = 0xFFFFFFFF;
  bytes.replace(16, 4, reinterpret_cast<const char*>(&huge), 4);
  EXPECT_THROW((void)net::announced_frame_size(bytes), std::runtime_error);
  EXPECT_THROW((void)net::decode_frame(bytes), std::runtime_error);
  FrameAssembler asm_;
  EXPECT_THROW(asm_.feed(bytes), std::runtime_error);
}

TEST(FrameCodec, OversizedPayloadRejectedAtEncode) {
  EXPECT_THROW((void)net::encode_frame(
                   FrameKind::kRequest, OpCode::kObserveBatch, 1,
                   std::string(net::kMaxFramePayload + 1, 'x')),
               std::invalid_argument);
}

TEST(FrameAssembler, ReassemblesByteByByteDelivery) {
  const std::string bytes = valid_frame();
  FrameAssembler asm_;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    asm_.feed(std::string_view(bytes.data() + i, 1));
    if (auto f = asm_.poll()) {
      ++delivered;
      EXPECT_EQ(i, bytes.size() - 1);
      EXPECT_EQ(f->request_id, 42u);
    }
  }
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(asm_.buffered(), 0u);
}

TEST(FrameAssembler, PoisonsOnCorruptStreamAndStaysPoisoned) {
  std::string bytes = valid_frame();
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);  // break the magic
  FrameAssembler asm_;
  EXPECT_THROW(asm_.feed(bytes), std::runtime_error);
  EXPECT_THROW((void)asm_.poll(), std::runtime_error);
  EXPECT_THROW(asm_.feed(valid_frame()), std::runtime_error);
}

// Every payload codec under the same regimen: truncation at every prefix
// length must throw, a byte flip at every offset must throw or produce a
// bounded value — never crash or over-allocate.
void fuzz_payload(const std::string& valid,
                  const std::function<void(std::string_view)>& decode) {
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_THROW(decode(std::string_view(valid.data(), len)),
                 std::runtime_error)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW(decode(valid));
  for (const unsigned char flip : {0x01u, 0xFFu}) {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      std::string corrupt = valid;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      try {
        decode(corrupt);
      } catch (const std::runtime_error&) {
        // Bounded rejection.
      }
    }
  }
}

TEST(ProtocolFuzz, EveryDecoderRejectsCorruptionCleanly) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  mt.access(a);
  mt.access(b);

  fuzz_payload(net::encode_observe_batch(mt.records()),
               [](std::string_view p) {
                 const auto records = net::decode_observe_batch(p);
                 ASSERT_LE(records.size() * kTraceRecordBytes, p.size());
               });
  fuzz_payload(net::encode_file_query(a), [](std::string_view p) {
    (void)net::decode_file_query(p);
  });
  fuzz_payload(net::encode_pair_query(a, b), [](std::string_view p) {
    FileId x, y;
    net::decode_pair_query(p, x, y);
  });
  fuzz_payload(net::encode_u64(123456789), [](std::string_view p) {
    (void)net::decode_u64(p);
  });
  const std::vector<Correlator> list = {{b, 0.5f}, {a, 0.25f}};
  fuzz_payload(net::encode_correlators(list), [](std::string_view p) {
    const auto l = net::decode_correlators(p);
    ASSERT_LE(l.size() * 8, p.size());
  });
  net::PairQueryResult pr{0.5, 0.25, 3.0, 7};
  fuzz_payload(net::encode_pair_result(pr), [](std::string_view p) {
    (void)net::decode_pair_result(p);
  });
  net::ShardStatsResult sr{10, 20, 30, 40, 50};
  fuzz_payload(net::encode_stats_result(sr), [](std::string_view p) {
    (void)net::decode_stats_result(p);
  });
}

// A shard server fed a corrupt *payload* in a well-formed frame answers
// kError and keeps serving; corrupt *framing* severs the connection.
TEST(ProtocolFuzz, ShardServerSurvivesCorruptPayloads) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  mt.access(a);
  auto [client, server_end] = net::make_loopback_pair();
  net::ShardServer server(FarmerConfig{}, mt.dict(), std::move(server_end),
                          net::ShardServer::Options{});

  // Truncated observe payload inside a valid frame -> kError response.
  std::string bad = net::encode_observe_batch(mt.records());
  bad.resize(bad.size() - 3);
  ASSERT_TRUE(client->send(
      net::encode_frame(FrameKind::kRequest, OpCode::kObserveBatch, 1, bad)));
  auto resp = client->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(resp.has_value());
  Frame f = net::decode_frame(*resp);
  EXPECT_EQ(f.op, OpCode::kError);
  EXPECT_EQ(f.request_id, 1u);

  // The server is still alive and serves the repaired request.
  ASSERT_TRUE(client->send(net::encode_frame(
      FrameKind::kRequest, OpCode::kObserveBatch, 2,
      net::encode_observe_batch(mt.records()))));
  resp = client->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(resp.has_value());
  f = net::decode_frame(*resp);
  EXPECT_EQ(f.op, OpCode::kObserveBatch);
  EXPECT_EQ(net::decode_u64(f.payload), mt.records().size());

  // Corrupt framing (bad magic) is a protocol violation: the server
  // closes the connection rather than guessing at re-sync.
  std::string garbage = net::encode_frame(FrameKind::kRequest, OpCode::kFlush,
                                          3, std::string_view{});
  garbage[0] = static_cast<char>(garbage[0] ^ 0xFF);
  (void)client->send(garbage);
  for (int i = 0; i < 200 && !client->closed(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(client->closed());
}

// =================================================== fault injection =====
//
// The cluster backend's failure contract, pinned down with scripted
// transport faults: lost requests and responses are retried idempotently
// (never double-applied), duplicates and reorders are absorbed by request
// id matching, and unrecoverable failures surface as bounded-time
// std::runtime_error — never a hang.

struct ClusterRig {
  std::vector<net::FaultyTransport*> faults;  ///< borrowed, per shard
  std::vector<net::ShardServer*> servers;     ///< borrowed, per shard
  std::unique_ptr<net::ClusterMiner> miner;
};

ClusterRig make_faulty_cluster(const FarmerConfig& cfg,
                               std::shared_ptr<const TraceDictionary> dict,
                               std::size_t shards,
                               net::ClusterOptions copts) {
  ClusterRig rig;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  for (std::size_t s = 0; s < shards; ++s) {
    auto [client_end, server_end] = net::make_loopback_pair();
    auto server = std::make_unique<net::ShardServer>(
        cfg, dict, std::move(server_end), net::ShardServer::Options{});
    rig.servers.push_back(server.get());
    servers.push_back(std::move(server));
    auto faulty =
        std::make_unique<net::FaultyTransport>(std::move(client_end));
    rig.faults.push_back(faulty.get());
    transports.push_back(std::move(faulty));
  }
  rig.miner = std::make_unique<net::ClusterMiner>(
      cfg, std::move(dict), std::move(transports), copts,
      std::move(servers));
  return rig;
}

/// A micro trace whose records all hash to whatever shard; with one shard
/// everything lands on shard 0, which the single-shard fault tests rely on.
MicroTrace fault_trace() {
  MicroTrace mt;
  const FileId a = mt.file("a", "/p/a");
  const FileId b = mt.file("b", "/p/b");
  const FileId c = mt.file("c", "/p/c");
  for (int round = 0; round < 3; ++round) {
    mt.access(a);
    mt.access(b);
    mt.access(c);
    mt.access(a, "u1", "pid1");
    mt.access(c, "u1", "pid1");
  }
  return mt;
}

net::ClusterOptions fast_timeouts() {
  net::ClusterOptions copts;
  copts.request_timeout = std::chrono::milliseconds(150);
  copts.max_retries = 3;
  return copts;
}

/// The idempotency differential: after the scripted faults, the cluster
/// must hold exactly the reference model — same request count (nothing
/// double-applied), same correlator lists.
void expect_matches_reference(const net::ClusterMiner& miner,
                              const MicroTrace& mt) {
  Farmer reference(FarmerConfig{}, mt.dict());
  reference.observe_batch(mt.records());
  ASSERT_EQ(miner.stats().requests, reference.stats().requests);
  for (std::uint32_t f = 0; f < mt.dict()->files.size(); ++f) {
    const FileId id(f);
    EXPECT_EQ(miner.access_count(id), reference.access_count(id));
    const CorrelatorView got = miner.snapshot(id);
    const CorrelatorView want = reference.snapshot(id);
    ASSERT_EQ(got.size(), want.size()) << "file " << f;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].file, want[i].file);
      EXPECT_EQ(got[i].degree, want[i].degree);
    }
  }
}

TEST(FaultInjection, DroppedResponseRetriesIdempotently) {
  const MicroTrace mt = fault_trace();
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1,
                                 fast_timeouts());
  // The server applies the batch but its ack evaporates: the client must
  // retry (same request id) and the server must re-ack WITHOUT re-applying.
  rig.faults[0]->drop_next_receives(1);
  rig.miner->observe_batch(mt.records());
  rig.miner->flush();
  expect_matches_reference(*rig.miner, mt);
}

TEST(FaultInjection, DroppedRequestRetriesIdempotently) {
  const MicroTrace mt = fault_trace();
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1,
                                 fast_timeouts());
  // The request itself vanishes on the wire: the retry is the first copy
  // the server sees, and exactly one application results.
  rig.faults[0]->drop_next_sends(1);
  rig.miner->observe_batch(mt.records());
  rig.miner->flush();
  expect_matches_reference(*rig.miner, mt);
}

TEST(FaultInjection, DuplicatedResponsesAreIgnored) {
  const MicroTrace mt = fault_trace();
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1,
                                 fast_timeouts());
  rig.faults[0]->duplicate_next_receive();
  rig.miner->observe_batch(mt.records());
  rig.miner->flush();
  // The duplicated ack arrives with an already-retired request id and is
  // dropped; queries still answer correctly through the same channel.
  expect_matches_reference(*rig.miner, mt);
}

TEST(FaultInjection, ReorderedResponsesMatchById) {
  const MicroTrace mt = fault_trace();
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1,
                                 fast_timeouts());
  // Pipeline several observes, then swap two acks: matching is by request
  // id, not arrival order, so the barrier still retires everything.
  rig.faults[0]->reorder_next_receives();
  const std::span<const TraceRecord> records(mt.records());
  for (std::size_t i = 0; i < records.size(); i += 2)
    rig.miner->observe_batch(
        records.subspan(i, std::min<std::size_t>(2, records.size() - i)));
  rig.miner->flush();
  expect_matches_reference(*rig.miner, mt);
}

TEST(FaultInjection, DelayedResponseWithinBudgetSucceeds) {
  const MicroTrace mt = fault_trace();
  net::ClusterOptions copts;
  copts.request_timeout = std::chrono::milliseconds(2000);
  copts.max_retries = 0;
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1, copts);
  rig.faults[0]->delay_next_receives(1, std::chrono::milliseconds(50));
  rig.miner->observe_batch(mt.records());
  rig.miner->flush();
  expect_matches_reference(*rig.miner, mt);
}

TEST(FaultInjection, PersistentLossFailsInBoundedTime) {
  const MicroTrace mt = fault_trace();
  net::ClusterOptions copts;
  copts.request_timeout = std::chrono::milliseconds(40);
  copts.max_retries = 2;
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1, copts);
  // Eat every response the query's attempts could produce: the client must
  // give up with an error after (1 + retries) timeouts — not hang.
  rig.faults[0]->drop_next_receives(16);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)rig.miner->access_count(FileId(0)),
               std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // 3 attempts x 40 ms plus generous scheduling slack — the bound matters,
  // not the constant.
  EXPECT_LT(elapsed, std::chrono::milliseconds(5000));
}

TEST(FaultInjection, KilledShardServerSurfacesError) {
  const MicroTrace mt = fault_trace();
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1,
                                 fast_timeouts());
  rig.miner->observe_batch(mt.records());
  rig.miner->flush();
  // Kill the shard server mid-conversation: the transport severs, and
  // every subsequent operation fails fast instead of hanging.
  rig.servers[0]->stop();
  EXPECT_THROW((void)rig.miner->access_count(FileId(0)),
               std::runtime_error);
  EXPECT_THROW(rig.miner->observe_batch(mt.records()), std::runtime_error);
}

TEST(FaultInjection, SeveredMidPipelineFailsTheBarrier) {
  const MicroTrace mt = fault_trace();
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1,
                                 fast_timeouts());
  rig.miner->observe_batch(mt.records());
  rig.faults[0]->sever();
  // The flush barrier cannot confirm the outstanding acks on a severed
  // connection: bounded-time error, not silent data loss.
  EXPECT_THROW(rig.miner->flush(), std::runtime_error);
}

TEST(FaultInjection, CompoundFaultPlanStillConverges) {
  const MicroTrace mt = fault_trace();
  auto rig = make_faulty_cluster(FarmerConfig{}, mt.dict(), 1,
                                 fast_timeouts());
  // Drop + duplicate + reorder + delay on one conversation: the request-id
  // protocol absorbs all of it and the model still matches the reference.
  rig.faults[0]->drop_next_receives(1);
  rig.faults[0]->duplicate_next_receive();
  rig.faults[0]->reorder_next_receives();
  rig.faults[0]->delay_next_receives(1, std::chrono::milliseconds(20));
  const std::span<const TraceRecord> records(mt.records());
  for (std::size_t i = 0; i < records.size(); i += 3)
    rig.miner->observe_batch(
        records.subspan(i, std::min<std::size_t>(3, records.size() - i)));
  rig.miner->flush();
  expect_matches_reference(*rig.miner, mt);
}

}  // namespace
}  // namespace farmer
