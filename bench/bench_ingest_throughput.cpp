// Ingest throughput under concurrent producers, query latency under mixed
// ingest + multi-reader load, and the copy-on-write publish-cost profile.
//
// FARMER's premise is mining live metadata-server request streams, so the
// numbers that matter at peta-scale are (a) sustained ingest records/s,
// (b) Correlator-List query latency while ingest never stops, and (c) what
// one snapshot publication costs the drain. This bench reports all three:
//
//   1. Pure ingest: the HP trace replayed into the "concurrent" backend
//      from 1/2/4/8 producer threads (records partitioned by process,
//      256-record batches), wall-clock throughput including the final
//      flush(), with the synchronous "sharded" observe_batch() path as the
//      0-producer baseline and a publish-coalescing variant showing fewer
//      table swaps for the same stream.
//   1b. Parallel apply lanes: the same chunked stream through the
//      shard-disjoint worker pool behind observe_batch() at 1/2/4/8 apply
//      lanes (FARMER_APPLY_THREADS), on both the sharded (caller-driven)
//      and concurrent (drain-driven) paths; every row builds the
//      byte-identical model.
//   2. Publish cost vs dirty-set size: a single shard seeded with
//      FARMER_BENCH_FILES files (default 100k), then ingest rounds drawing
//      a Zipf(1.2) hot set. Each round is published twice — once through
//      the COW share export (what the concurrent backend does) and once
//      through the whole-shard deep copy it replaced — so the speedup and
//      the dirty-set scaling are measured side by side on identical state.
//   3. Mixed ingest + N readers: 4 producers replay the trace while N
//      reader threads hammer snapshot() on Zipf-distributed hot files,
//      on the RCU shard-table path with and without coalesced publishes.
//   4. Durable persistence: steady-state ingest with the WAL + checkpoint
//      pipeline enabled vs the no-persist baseline (sharded and concurrent
//      paths), the cost of one full-model checkpoint save, and recovery
//      wall-clock from a checkpoint alone vs a checkpoint plus a WAL tail
//      (~40% of the trace) that must be replayed.
//   5. Disk replay (the out-of-core pipeline): a multi-tenant trace is
//      streamed to per-tenant v3 part files (stream_multi_tenant_trace),
//      externally merged by timestamp (merge_trace_streams), then the
//      merged file is mmap'd and its record span fed to every backend —
//      sharded/concurrent, with and without WAL + checkpoints —
//      next to an in-memory sharded baseline over the materialized trace.
//      FARMER_TRACE_DIR / FARMER_TRACE_TENANTS / FARMER_TRACE_ROUNDS size
//      and place the trace (see bench_util.hpp); with FARMER_TRACE_DIR set
//      an existing merged trace is reused and the generate/merge rows are
//      skipped, so a multi-GB trace is built once and replayed many times.
//
// `--json` replaces the human tables with one machine-readable JSON
// document (scripts/bench_to_json.py validates/normalizes it into the
// committed BENCH_ingest.json baseline).
#include "bench_util.hpp"

#include <atomic>
#include <filesystem>

#include "common/stats.hpp"
#include "common/zipf.hpp"
#include "trace/trace_stream.hpp"

namespace {

using namespace farmer;
using namespace farmer::bench;

struct MixedResult {
  double ingest_secs = 0.0;
  std::uint64_t queries = 0;
  LatencyHistogram latency_ns;
};

/// 4 producer threads replay `parts` while `readers` threads snapshot()
/// Zipf-hot files as fast as they can; readers stop once ingest (including
/// the final flush) is done. Per-query wall latencies land in a merged
/// nanosecond histogram.
MixedResult mixed_replay(CorrelationMiner& miner,
                         const std::vector<std::vector<TraceRecord>>& parts,
                         std::size_t readers, std::uint32_t file_count) {
  MixedResult out;
  std::atomic<bool> done{false};
  std::vector<LatencyHistogram> lats(readers);
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      Rng rng(0x9000 + r);
      const ZipfRejection zipf(file_count, 1.1);
      std::size_t sink = 0;
      while (!done.load(std::memory_order_acquire)) {
        const FileId f(static_cast<std::uint32_t>(zipf.sample(rng)));
        const auto t0 = std::chrono::steady_clock::now();
        const CorrelatorView view = miner.snapshot(f);
        const auto t1 = std::chrono::steady_clock::now();
        sink += view.size();  // keep the query observable
        lats[r].record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
      // Publish the sink so the compiler cannot drop the loop body.
      volatile std::size_t keep = sink;
      (void)keep;
    });
  }
  out.ingest_secs = concurrent_replay(miner, parts);
  done.store(true, std::memory_order_release);
  for (auto& t : reader_threads) t.join();
  for (const auto& h : lats) out.latency_ns.merge(h);
  out.queries = out.latency_ns.count();
  return out;
}

// ------------------------------------------------- publish-cost workload --

/// A synthetic single-shard workload: `files` files with File-ID attributes
/// (no paths), token pools sized like a small serving cluster. The point is
/// a large node/state table with a small Zipf-hot dirty set per round.
struct PublishWorkload {
  std::shared_ptr<TraceDictionary> dict;
  std::vector<TraceRecord> seed;  ///< one access per file, id order
  TokenId hot_user, hot_proc, hot_host;

  explicit PublishWorkload(std::size_t files) {
    dict = std::make_shared<TraceDictionary>();
    const TokenId dev = dict->tokens.intern("dev0");
    std::vector<TokenId> users, procs, hosts;
    for (int i = 0; i < 8; ++i)
      users.push_back(dict->tokens.intern("user" + std::to_string(i)));
    for (int i = 0; i < 32; ++i)
      procs.push_back(dict->tokens.intern("pid" + std::to_string(i)));
    for (int i = 0; i < 4; ++i)
      hosts.push_back(dict->tokens.intern("host" + std::to_string(i)));
    hot_user = users[0];
    hot_proc = procs[0];
    hot_host = hosts[0];
    dict->files.reserve(files);
    seed.reserve(files);
    for (std::size_t f = 0; f < files; ++f) {
      FileMeta meta;
      meta.dev = dev;
      meta.fid = dict->tokens.intern("fid" + std::to_string(f));
      meta.size_bytes = 4096;
      dict->files.push_back(meta);
      seed.push_back(record_for(FileId(static_cast<std::uint32_t>(f)),
                                users[f % users.size()],
                                procs[f % procs.size()],
                                hosts[f % hosts.size()]));
    }
  }

  [[nodiscard]] TraceRecord record_for(FileId f, TokenId user, TokenId proc,
                                       TokenId host) const {
    TraceRecord r;
    r.file = f;
    r.user = UserId(0);
    r.process = ProcessId(0);
    r.host = HostId(0);
    r.user_token = user;
    r.process_token = proc;
    r.host_token = host;
    r.dev_token = dict->files[f.value()].dev;
    r.fid_token = dict->files[f.value()].fid;
    r.program_token = proc;
    r.size_bytes = 4096;
    return r;
  }

  /// `count` Zipf(skew)-hot records over the file population.
  [[nodiscard]] std::vector<TraceRecord> hot_batch(std::size_t count,
                                                   double skew,
                                                   Rng& rng) const {
    const ZipfRejection zipf(dict->files.size(), skew);
    std::vector<TraceRecord> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto f = static_cast<std::uint32_t>(zipf.sample(rng));
      batch.push_back(record_for(FileId(f), hot_user, hot_proc, hot_host));
    }
    return batch;
  }
};

/// Per-publish cost of the COW share export vs the whole-shard deep copy,
/// on identical live state, for one dirty-set size.
struct PublishCostRow {
  std::size_t dirty_records = 0;
  double blocks_cloned_per_round = 0.0;
  double ingest_us = 0.0;
  double cow_publish_us = 0.0;
  double deep_publish_us = 0.0;
};

PublishCostRow measure_publish_cost(Farmer& live, const PublishWorkload& wl,
                                    std::size_t dirty_records,
                                    std::size_t rounds, Rng& rng) {
  PublishCostRow row;
  row.dirty_records = dirty_records;
  const std::uint64_t clones_before = live.cow_clones();
  double cow_ns = 0.0, deep_ns = 0.0, ingest_ns = 0.0;
  // Hold each round's snapshot until the next one exists, like the RCU
  // table does: consecutive publishes share untouched blocks.
  std::shared_ptr<const Farmer> held;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto batch = wl.hot_batch(dirty_records, /*skew=*/1.2, rng);
    const auto i0 = std::chrono::steady_clock::now();
    live.observe_batch(batch);
    const auto i1 = std::chrono::steady_clock::now();
    ingest_ns += std::chrono::duration<double, std::nano>(i1 - i0).count();

    const auto c0 = std::chrono::steady_clock::now();
    auto snap = std::make_shared<const Farmer>(CowShare{}, live);
    const auto c1 = std::chrono::steady_clock::now();
    cow_ns += std::chrono::duration<double, std::nano>(c1 - c0).count();
    held = std::move(snap);

    // The deep copy the COW export replaced, timed on the same state. Only
    // a few reps: at 100k files one deep copy costs what thousands of COW
    // exports do, and the value barely varies.
    if (r < 3) {
      const auto d0 = std::chrono::steady_clock::now();
      const auto deep = std::make_shared<const Farmer>(live);
      const auto d1 = std::chrono::steady_clock::now();
      deep_ns += std::chrono::duration<double, std::nano>(d1 - d0).count();
    }
  }
  const auto deep_reps = std::min<std::size_t>(rounds, 3);
  row.blocks_cloned_per_round =
      static_cast<double>(live.cow_clones() - clones_before) /
      static_cast<double>(rounds);
  row.ingest_us = ingest_ns / 1e3 / static_cast<double>(rounds);
  row.cow_publish_us = cow_ns / 1e3 / static_cast<double>(rounds);
  row.deep_publish_us =
      deep_reps ? deep_ns / 1e3 / static_cast<double>(deep_reps) : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace farmer;
  using namespace farmer::bench;

  const bool json = json_output_requested(argc, argv);
  if (!json)
    print_experiment_header(
        std::cout, "Ingest throughput",
        "concurrent-producer trace replay into the \"concurrent\" backend "
        "(HP trace, 256-record batches, throughput includes flush)",
        "throughput should not collapse as producers grow: enqueue is "
        "lock-free, the drain applies batches through the sharded miner and "
        "publishes copy-on-write snapshots");

  const Trace& trace = paper_trace(TraceKind::kHP);
  const FarmerConfig cfg = fpa_config(trace);
  MinerOptions opts = miner_options();

  Table ingest({"producers", "backend", "records", "seconds", "records/s",
                "publishes"});

  // Baseline: synchronous sharded ingest on the caller's thread.
  {
    const auto sharded = make_miner("sharded", cfg, trace.dict, opts);
    const auto start = std::chrono::steady_clock::now();
    sharded->observe_batch(trace.records);
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - start).count();
    ingest.add_row({"0 (sync)", "sharded",
                    std::to_string(trace.records.size()), fmt_double(secs, 3),
                    fmt_double(static_cast<double>(trace.records.size()) /
                                   secs,
                               0),
                    "-"});
  }

  for (const std::size_t producers : {1u, 2u, 4u, 8u}) {
    opts.ingest_threads = producers;
    const auto miner = make_miner("concurrent", cfg, trace.dict, opts);
    const auto parts = partition_by_process(trace, producers);
    const double secs = concurrent_replay(*miner, parts);
    const MinerStats s = miner->stats();
    ingest.add_row({std::to_string(producers), "concurrent",
                    std::to_string(s.requests), fmt_double(secs, 3),
                    fmt_double(static_cast<double>(s.requests) / secs, 0),
                    std::to_string(s.publishes)});
  }
  // Publish coalescing: same stream, same producers, one table swap per
  // >= 8192 applied records (or the staleness deadline) instead of one per
  // drain round.
  {
    MinerOptions coalesced = opts;
    coalesced.ingest_threads = 4;
    coalesced.publish_interval_records = 8192;
    const auto miner = make_miner("concurrent", cfg, trace.dict, coalesced);
    const auto parts = partition_by_process(trace, 4);
    const double secs = concurrent_replay(*miner, parts);
    const MinerStats s = miner->stats();
    ingest.add_row({"4 (coalesced)", "concurrent",
                    std::to_string(s.requests), fmt_double(secs, 3),
                    fmt_double(static_cast<double>(s.requests) / secs, 0),
                    std::to_string(s.publishes)});
  }
  if (!json) ingest.print(std::cout);

  // ----------------------------------------------- parallel apply lanes --
  // The shard-disjoint apply path by itself: the same chunked stream into
  // "sharded" (caller thread drives observe_batch) and "concurrent" (drain
  // thread hands collected batches to the same apply) at 1/2/4/8 worker
  // lanes. Every row builds the byte-identical model — the lanes only touch
  // disjoint shards — so records/s is the entire difference. 8 shards so
  // each lane count up to 8 owns at least one shard.
  Table parallel_apply({"scenario", "records", "seconds", "records/s"});
  {
    const std::size_t n = trace.records.size();
    const auto chunked_replay = [&](CorrelationMiner& miner) {
      const auto start = std::chrono::steady_clock::now();
      constexpr std::size_t kChunk = 256;
      for (std::size_t i = 0; i < n; i += kChunk) {
        const std::size_t len = std::min(kChunk, n - i);
        miner.observe_batch(
            std::span<const TraceRecord>(&trace.records[i], len));
      }
      miner.flush();
      const auto end = std::chrono::steady_clock::now();
      return std::chrono::duration<double>(end - start).count();
    };
    const auto add_apply_row = [&](const std::string& label, double secs) {
      parallel_apply.add_row({label, std::to_string(n), fmt_double(secs, 3),
                              fmt_double(static_cast<double>(n) / secs, 0)});
    };
    MinerOptions popts = opts;
    popts.shards = 8;
    for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
      popts.apply_threads = lanes;
      {
        const auto miner = make_miner("sharded", cfg, trace.dict, popts);
        add_apply_row("sharded x" + std::to_string(lanes),
                      chunked_replay(*miner));
      }
      {
        popts.ingest_threads = 2;
        const auto miner = make_miner("concurrent", cfg, trace.dict, popts);
        const auto cparts = partition_by_process(trace, 2);
        add_apply_row("concurrent x" + std::to_string(lanes),
                      concurrent_replay(*miner, cparts));
      }
    }
  }
  if (!json) {
    std::cout << "\nParallel shard-disjoint apply: the same chunked stream "
                 "at 1/2/4/8 apply lanes (FARMER_APPLY_THREADS), sharded "
                 "(caller-driven observe_batch) and concurrent (drain-driven) "
                 "over 8 shards; every row builds the byte-identical "
                 "model:\n\n";
    parallel_apply.print(std::cout);
  }

  // ---------------------------------------------------- publish-cost scan --
  const std::size_t publish_files = runtime().bench_files;
  if (!json)
    std::cout << "\nPer-publish cost, COW share vs whole-shard deep copy ("
              << publish_files << "-file shard, Zipf(1.2) dirty set, "
              << "averages per publish round):\n\n";
  Table publish({"dirty records", "blocks cloned/round", "ingest us",
                 "cow publish us", "deep-copy publish us", "speedup"});
  {
    FarmerConfig pcfg;
    pcfg.attributes = AttributeMask::all_with_fileid();
    const PublishWorkload wl(publish_files);
    Farmer live(pcfg, wl.dict);
    live.observe_batch(wl.seed);
    Rng rng(0xC0117);
    for (const std::size_t dirty : {16u, 256u, 4096u}) {
      const auto row =
          measure_publish_cost(live, wl, dirty, /*rounds=*/8, rng);
      publish.add_row(
          {std::to_string(row.dirty_records),
           fmt_double(row.blocks_cloned_per_round, 0),
           fmt_double(row.ingest_us, 1), fmt_double(row.cow_publish_us, 1),
           fmt_double(row.deep_publish_us, 1),
           fmt_double(row.cow_publish_us > 0.0
                          ? row.deep_publish_us / row.cow_publish_us
                          : 0.0,
                      1) +
               "x"});
    }
  }
  if (!json) publish.print(std::cout);

  // ---------------------------------------------- mixed ingest + readers --
  if (!json)
    std::cout << "\nMixed ingest + N readers (4 producers, Zipf(1.1) hot "
                 "queries, latencies in ns):\n\n";
  constexpr std::size_t kProducers = 4;
  const auto parts = partition_by_process(trace, kProducers);
  const auto file_count =
      static_cast<std::uint32_t>(trace.dict->files.size());

  Table mixed({"query path", "readers", "ingest rec/s", "queries", "q p50",
               "q p95", "q p99"});
  const auto add_mixed_row = [&](const char* label, std::size_t readers,
                                 const MixedResult& r) {
    mixed.add_row(
        {label, std::to_string(readers),
         fmt_double(static_cast<double>(trace.records.size()) / r.ingest_secs,
                    0),
         std::to_string(r.queries), std::to_string(r.latency_ns.p50()),
         std::to_string(r.latency_ns.p95()),
         std::to_string(r.latency_ns.p99())});
  };
  for (const std::size_t readers : {4u, 8u}) {
    {
      MinerOptions rcu = opts;
      rcu.ingest_threads = kProducers;
      rcu.publish_interval_records = 0;
      const auto miner = make_miner("concurrent", cfg, trace.dict, rcu);
      const MixedResult r = mixed_replay(*miner, parts, readers, file_count);
      add_mixed_row("RCU shard-table", readers, r);
    }
    {
      MinerOptions coal = opts;
      coal.ingest_threads = kProducers;
      coal.publish_interval_records = 8192;
      const auto miner = make_miner("concurrent", cfg, trace.dict, coal);
      const MixedResult r = mixed_replay(*miner, parts, readers, file_count);
      add_mixed_row("RCU + coalesced publish", readers, r);
    }
  }

  // ------------------------------------------------- durable persistence --
  // The first column is the row's identity for bench_diff. All persist
  // scenarios share one temp tree (cleaned before and after); ingest rows
  // replay the same chunked stream so the WAL + checkpoint overhead is the
  // only difference within a pair.
  Table recovery({"scenario", "records", "seconds", "records/s"});
  {
    namespace fs = std::filesystem;
    const fs::path base = fs::temp_directory_path() / "farmer_bench_persist";
    std::error_code ec;
    fs::remove_all(base, ec);
    fs::create_directories(base);
    const std::size_t n = trace.records.size();
    const auto add_recovery_row = [&](const char* label, double secs) {
      recovery.add_row({label, std::to_string(n), fmt_double(secs, 3),
                        fmt_double(static_cast<double>(n) / secs, 0)});
    };
    // Chunked so the durable path sees realistic batch boundaries (group
    // commits and inline checkpoints both land inside the stream, not once
    // at the end).
    const auto chunked_replay = [&](CorrelationMiner& miner) {
      const auto start = std::chrono::steady_clock::now();
      constexpr std::size_t kChunk = 1024;
      for (std::size_t i = 0; i < n; i += kChunk) {
        const std::size_t len = std::min(kChunk, n - i);
        miner.observe_batch(
            std::span<const TraceRecord>(&trace.records[i], len));
      }
      miner.flush();
      const auto end = std::chrono::steady_clock::now();
      return std::chrono::duration<double>(end - start).count();
    };

    MinerOptions plain = opts;
    plain.ingest_threads = kProducers;

    // Kept alive past its ingest row to price save() on the full model.
    const auto sharded_plain = make_miner("sharded", cfg, trace.dict, plain);
    add_recovery_row("ingest sharded (no persist)",
                     chunked_replay(*sharded_plain));
    {
      MinerOptions durable = plain;
      durable.persist_dir = (base / "sharded").string();
      const auto miner = make_miner("sharded", cfg, trace.dict, durable);
      add_recovery_row("ingest sharded (wal+ckpt)", chunked_replay(*miner));
    }
    {
      const auto miner = make_miner("concurrent", cfg, trace.dict, plain);
      add_recovery_row("ingest concurrent x4 (no persist)",
                       concurrent_replay(*miner, parts));
    }
    {
      MinerOptions durable = plain;
      durable.persist_dir = (base / "concurrent").string();
      const auto miner = make_miner("concurrent", cfg, trace.dict, durable);
      add_recovery_row("ingest concurrent x4 (wal+ckpt)",
                       concurrent_replay(*miner, parts));
    }
    // One explicit full-model checkpoint into a fresh directory.
    const fs::path ckpt_dir = base / "ckpt";
    {
      const auto start = std::chrono::steady_clock::now();
      sharded_plain->save(ckpt_dir.string());
      const auto end = std::chrono::steady_clock::now();
      add_recovery_row("checkpoint save",
                       std::chrono::duration<double>(end - start).count());
    }
    // Recovery from the checkpoint alone: the directory holds no WAL, so
    // this prices deserialization of the full model.
    {
      MinerOptions durable = plain;
      durable.persist_dir = ckpt_dir.string();
      const auto start = std::chrono::steady_clock::now();
      const auto recovered = make_miner("sharded", cfg, trace.dict, durable);
      const auto end = std::chrono::steady_clock::now();
      add_recovery_row("recover (checkpoint only)",
                       std::chrono::duration<double>(end - start).count());
    }
    // Recovery with a WAL tail: checkpoint at ~60% of the trace, so the
    // remaining ~40% must be replayed record by record on open.
    {
      MinerOptions durable = plain;
      durable.persist_dir = (base / "tail").string();
      durable.checkpoint_interval_records = std::max<std::size_t>(
          1, (n * 3) / 5);
      {
        const auto miner = make_miner("sharded", cfg, trace.dict, durable);
        chunked_replay(*miner);
      }
      const auto start = std::chrono::steady_clock::now();
      const auto recovered = make_miner("sharded", cfg, trace.dict, durable);
      const auto end = std::chrono::steady_clock::now();
      add_recovery_row("recover (checkpoint + wal tail)",
                       std::chrono::duration<double>(end - start).count());
    }
    fs::remove_all(base, ec);
  }

  // ------------------------------------------------------------ disk replay --
  // The out-of-core pipeline end to end. Replay rows feed the miner straight
  // from the merged file's mmap'd record span (no Trace materialized); the
  // in-memory row is the same chunked sharded ingest over a materialized
  // Trace, so the pair isolates the cost of reading records off the mapping.
  Table disk_replay({"scenario", "records", "seconds", "records/s"});
  {
    namespace fs = std::filesystem;
    const std::string custom_dir = trace_dir();
    const bool keep = !custom_dir.empty();
    const fs::path dir = keep ? fs::path(custom_dir)
                              : fs::temp_directory_path() /
                                    "farmer_bench_trace";
    std::error_code ec;
    if (!keep) fs::remove_all(dir, ec);
    fs::create_directories(dir);
    const fs::path merged_path = dir / "merged.ftrace";

    const auto add_replay_row = [&](const std::string& label,
                                    std::uint64_t records, double secs) {
      disk_replay.add_row({label, std::to_string(records),
                           fmt_double(secs, 3),
                           fmt_double(static_cast<double>(records) / secs,
                                      0)});
    };

    if (!keep || !fs::exists(merged_path)) {
      static const TraceKind kTenantKinds[] = {TraceKind::kHP,
                                               TraceKind::kINS,
                                               TraceKind::kRES,
                                               TraceKind::kLLNL};
      StreamedTraceSpec spec;
      const std::size_t ntenants = trace_tenants();
      for (std::size_t t = 0; t < ntenants; ++t)
        spec.tenants.push_back(kTenantKinds[t % 4]);
      spec.seed = kExperimentSeed;
      spec.scale = bench_scale();
      spec.rounds = trace_rounds();

      auto t0 = std::chrono::steady_clock::now();
      const StreamedMultiTenantTrace streamed =
          stream_multi_tenant_trace(spec, dir.string());
      auto t1 = std::chrono::steady_clock::now();
      add_replay_row("generate (streamed)", streamed.records_written,
                     std::chrono::duration<double>(t1 - t0).count());

      t0 = std::chrono::steady_clock::now();
      const std::uint64_t merged = merge_trace_streams(
          streamed.part_paths, merged_path.string(), streamed.name);
      t1 = std::chrono::steady_clock::now();
      add_replay_row("merge (k-way)", merged,
                     std::chrono::duration<double>(t1 - t0).count());
    }

    const TraceReader reader(merged_path.string());
    const std::span<const TraceRecord> records = reader.records();
    const std::uint64_t n = records.size();
    FarmerConfig rcfg;
    rcfg.attributes = reader.has_paths() ? AttributeMask::all_with_path()
                                         : AttributeMask::all_with_fileid();
    const fs::path pbase = dir / "persist";
    fs::remove_all(pbase, ec);

    MinerOptions ropts = opts;
    ropts.ingest_threads = kProducers;
    {
      const Trace mem = reader.materialize();
      const auto miner = make_miner("sharded", rcfg, mem.dict, ropts);
      add_replay_row("ingest sharded (in-memory)", n,
                     span_replay(*miner, mem.records));
    }
    {
      const auto miner = make_miner("sharded", rcfg, reader.dict(), ropts);
      add_replay_row("replay sharded (mmap)", n, span_replay(*miner, records));
    }
    {
      MinerOptions durable = ropts;
      durable.persist_dir = (pbase / "sharded").string();
      const auto miner = make_miner("sharded", rcfg, reader.dict(), durable);
      add_replay_row("replay sharded (wal+ckpt)", n,
                     span_replay(*miner, records));
    }
    {
      const auto miner = make_miner("concurrent", rcfg, reader.dict(), ropts);
      add_replay_row("replay concurrent x4 (mmap)", n,
                     span_replay_concurrent(*miner, records, kProducers));
    }
    {
      MinerOptions durable = ropts;
      durable.persist_dir = (pbase / "concurrent").string();
      const auto miner =
          make_miner("concurrent", rcfg, reader.dict(), durable);
      add_replay_row("replay concurrent x4 (wal+ckpt)", n,
                     span_replay_concurrent(*miner, records, kProducers));
    }
    fs::remove_all(pbase, ec);
    if (!keep) fs::remove_all(dir, ec);
  }

  if (json) {
    std::cout << "{\"bench\": \"bench_ingest_throughput\", \"scale\": "
              << bench_scale() << ", \"publish_files\": " << publish_files
              << ", \"tables\": [";
    ingest.print_json(std::cout, "pure_ingest");
    std::cout << ", ";
    parallel_apply.print_json(std::cout, "parallel_apply");
    std::cout << ", ";
    publish.print_json(std::cout, "publish_cost");
    std::cout << ", ";
    mixed.print_json(std::cout, "mixed_ingest_readers");
    std::cout << ", ";
    recovery.print_json(std::cout, "recovery");
    std::cout << ", ";
    disk_replay.print_json(std::cout, "disk_replay");
    std::cout << "]}\n";
    return 0;
  }

  mixed.print(std::cout);

  std::cout << "\nDurable persistence: WAL + checkpoint overhead on the "
               "ingest path, checkpoint save cost, and recovery wall-clock "
               "(checkpoint deserialization vs checkpoint + ~40%-of-trace "
               "WAL replay):\n\n";
  recovery.print(std::cout);

  std::cout << "\nDisk replay: streamed generate → external k-way merge → "
               "mmap replay of the merged v3 trace into every backend, vs "
               "the same ingest over an in-memory Trace (FARMER_TRACE_DIR / "
               "FARMER_TRACE_TENANTS / FARMER_TRACE_ROUNDS size and place "
               "the trace):\n\n";
  disk_replay.print(std::cout);

  std::cout << "\nNote: FARMER_SHARDS (default 4) sets the mining "
               "partitions for both backends; producer counts above the "
               "machine's cores measure queueing, not mining. The mixed "
               "table fixes 4 producers and varies reader threads; the "
               "coalesced row trades publish frequency (bounded by "
               "FARMER_PUBLISH_MAX_DELAY_MS staleness) for fewer table "
               "swaps. The publish-cost table is the copy-on-write story: "
               "the deep-copy column scales with the whole shard, the COW "
               "column with the dirty set (ingest us carries the clone "
               "cost, paid once per touched file per publish window).\n";
  return 0;
}
