// Ingest throughput of the sharded apply path and durable persistence.
//
// FARMER's premise is mining live metadata-server request streams, so the
// numbers that matter at peta-scale are sustained ingest records/s, what
// durability costs on top of it, and how fast a model comes back after a
// crash. This bench reports two tables:
//
//   1. Parallel apply lanes: the HP trace in 256-record chunks through the
//      shard-disjoint worker pool behind the "sharded" backend's
//      observe_batch() at 1/2/4/8 apply lanes (FARMER_APPLY_THREADS); every
//      row builds the byte-identical model.
//   2. Durable persistence: steady-state ingest with the WAL + checkpoint
//      pipeline enabled vs the no-persist baseline, the cost of one
//      full-model checkpoint save, and recovery wall-clock from a
//      checkpoint alone vs a checkpoint plus a WAL tail (~40% of the trace)
//      that must be replayed.
//
// The out-of-core pipeline (streamed generation, k-way merge, mmap replay
// into "sharded") is measured by bench/e2e: its set-up times the first two
// stages and its `ingest` workload is the replay.
//
// `--json` replaces the human tables with one machine-readable JSON
// document (scripts/bench_to_json.py validates/normalizes it into the
// committed BENCH_ingest.json baseline).
#include "bench_util.hpp"

#include <filesystem>

int main(int argc, char** argv) {
  using namespace farmer;
  using namespace farmer::bench;

  const bool json = json_output_requested(argc, argv);
  if (!json)
    print_experiment_header(
        std::cout, "Ingest throughput",
        "HP trace in 256-record batches through the \"sharded\" backend's "
        "shard-disjoint apply at 1/2/4/8 worker lanes, 8 shards",
        "throughput should not fall as lanes grow: shards share no mutable "
        "state, so lanes only split the work");

  const Trace& trace = paper_trace(TraceKind::kHP);
  const FarmerConfig cfg = fpa_config(trace);
  const MinerOptions& opts = miner_options();

  // ----------------------------------------------- parallel apply lanes --
  // The same chunked stream into "sharded" (the caller's thread drives
  // observe_batch) at 1/2/4/8 worker lanes. Every row builds the
  // byte-identical model — the lanes only touch disjoint shards — so
  // records/s is the entire difference. 8 shards so each lane count up to
  // 8 owns at least one shard.
  Table parallel_apply({"scenario", "records", "seconds", "records/s"});
  {
    const std::size_t n = trace.records.size();
    MinerOptions popts = opts;
    popts.shards = 8;
    for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
      popts.apply_threads = lanes;
      const auto miner = make_miner("sharded", cfg, trace.dict, popts);
      const double secs =
          span_replay(*miner, trace.records, /*chunk=*/256);
      parallel_apply.add_row({"sharded x" + std::to_string(lanes),
                              std::to_string(n), fmt_double(secs, 3),
                              fmt_double(static_cast<double>(n) / secs, 0)});
    }
  }
  if (!json) parallel_apply.print(std::cout);

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
    // span_replay's 1024-record chunks give the durable path realistic
    // batch boundaries: group commits and inline checkpoints both land
    // inside the stream, not once at the end. The plain miner is kept
    // alive past its ingest row to price save() on the full model.
    const auto sharded_plain = make_miner("sharded", cfg, trace.dict, opts);
    add_recovery_row("ingest sharded (no persist)",
                     span_replay(*sharded_plain, trace.records));
    {
      MinerOptions durable = opts;
      durable.persist_dir = (base / "sharded").string();
      const auto miner = make_miner("sharded", cfg, trace.dict, durable);
      add_recovery_row("ingest sharded (wal+ckpt)",
                       span_replay(*miner, trace.records));
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
      MinerOptions durable = opts;
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
      MinerOptions durable = opts;
      durable.persist_dir = (base / "tail").string();
      durable.checkpoint_interval_records = std::max<std::size_t>(
          1, (n * 3) / 5);
      {
        const auto miner = make_miner("sharded", cfg, trace.dict, durable);
        span_replay(*miner, trace.records);
      }
      const auto start = std::chrono::steady_clock::now();
      const auto recovered = make_miner("sharded", cfg, trace.dict, durable);
      const auto end = std::chrono::steady_clock::now();
      add_recovery_row("recover (checkpoint + wal tail)",
                       std::chrono::duration<double>(end - start).count());
    }
    fs::remove_all(base, ec);
  }

  if (json) {
    std::cout << "{\"bench\": \"bench_ingest_throughput\", \"scale\": "
              << bench_scale() << ", \"tables\": [";
    parallel_apply.print_json(std::cout, "parallel_apply");
    std::cout << ", ";
    recovery.print_json(std::cout, "recovery");
    std::cout << "]}\n";
    return 0;
  }

  std::cout << "\nDurable persistence: WAL + checkpoint overhead on the "
               "ingest path, checkpoint save cost, and recovery wall-clock "
               "(checkpoint deserialization vs checkpoint + ~40%-of-trace "
               "WAL replay):\n\n";
  recovery.print(std::cout);

  std::cout << "\nNote: the parallel-apply table fixes 8 shards; "
               "FARMER_SHARDS (default 4) sets the mining partitions of the "
               "persistence rows. Lane counts above the machine's cores "
               "measure scheduling, not mining.\n";
  return 0;
}
