// Ablations of the design decisions DESIGN.md calls out:
//   1. LDA vs uniform window weighting (Section 3.2.2)
//   2. IPA vs DPA end-to-end (Section 3.2.1)
//   3. validity-threshold filter on/off — accuracy + footprint (3.2.4/3.3)
//   4. MDS priority queues: demand-over-prefetch vs single queue (4.1)
//   5. batched vs individual prefetch I/O (4.2)
#include "bench_util.hpp"

int main() {
  using namespace farmer;
  using namespace farmer::bench;
  const Trace& trace = paper_trace(TraceKind::kHP);
  const ReplayConfig rc = replay_config(trace);

  print_experiment_header(
      std::cout, "Ablation 1",
      "Linear Decremented Assignment vs uniform window weights (HP)",
      "distance decay sharpens successor ranking -> higher accuracy");
  {
    Table t({"window weighting", "hit ratio", "accuracy"});
    for (const bool lda : {true, false}) {
      FarmerConfig cfg = fpa_config(trace);
      cfg.lda_delta = lda ? 0.1 : 0.0;  // 0.0 = every distance weighs 1.0
      auto fpa = make_fpa(trace, cfg);
      const auto r = replay_trace(trace, fpa, rc);
      t.add_row({lda ? "LDA (1.0, 0.9, 0.8, ...)" : "uniform (all 1.0)",
                 pct(r.hit_ratio()), pct(r.prefetch_accuracy())});
    }
    t.print(std::cout);
  }

  print_experiment_header(
      std::cout, "Ablation 2", "IPA vs DPA path handling end-to-end (HP)",
      "paper selects IPA: deep directories must not drown the other "
      "attributes");
  {
    Table t({"path mode", "hit ratio", "accuracy"});
    for (const auto mode : {PathMode::kIntegrated, PathMode::kDivided}) {
      FarmerConfig cfg = fpa_config(trace);
      cfg.path_mode = mode;
      auto fpa = make_fpa(trace, cfg);
      const auto r = replay_trace(trace, fpa, rc);
      t.add_row({mode == PathMode::kIntegrated ? "IPA" : "DPA",
                 pct(r.hit_ratio()), pct(r.prefetch_accuracy())});
    }
    t.print(std::cout);
  }

  print_experiment_header(
      std::cout, "Ablation 3",
      "validity threshold on/off: accuracy, pollution, correlator state",
      "the filter trades a little coverage for accuracy and memory "
      "(Section 3.3)");
  {
    Table t({"max_strength", "hit ratio", "accuracy", "pollution",
             "correlator entries"});
    for (const double s : {0.4, 0.0}) {
      FarmerConfig cfg = fpa_config(trace);
      cfg.max_strength = s;
      auto fpa = make_fpa(trace, cfg);
      const auto r = replay_trace(trace, fpa, rc);
      std::size_t entries = 0;
      for (std::uint32_t f = 0; f < trace.file_count(); ++f)
        entries += fpa.model().snapshot(FileId(f)).size();
      t.add_row({fmt_double(s, 1), pct(r.hit_ratio()),
                 pct(r.prefetch_accuracy()), pct(r.cache.pollution_ratio()),
                 std::to_string(entries)});
    }
    t.print(std::cout);
  }

  print_experiment_header(
      std::cout, "Ablation 4",
      "MDS scheduling: demand-priority queues vs batched-prefetch off (DES)",
      "priority + batching protect demand latency from prefetch traffic");
  {
    Table t({"configuration", "mean RT (ms)", "p95 RT (ms)"});
    const ScenarioWorkload wl = des_workload(trace);
    for (const bool batch : {true, false}) {
      auto fpa = make_fpa(trace);
      ScenarioSpec spec = des_spec();
      spec.batch_prefetch = batch;
      const ServingResult m = serve(spec, wl, fpa);
      t.add_row({batch ? "batched group prefetch (one I/O per group)"
                       : "individual prefetch I/Os",
                 fmt_double(m.response.mean() / 1000.0, 3),
                 fmt_double(static_cast<double>(m.response.p95()) / 1000.0,
                            3)});
    }
    t.print(std::cout);
  }

  print_experiment_header(
      std::cout, "Ablation 5",
      "serial vs sharded mining (4 shards, stream-partitioned)",
      "sharding preserves list quality while enabling parallel ingest");
  {
    // Backends come from the factory: the ablation is a string, not a type.
    auto precision = [&](const CorrelationMiner& miner) {
      std::uint64_t intra = 0, total = 0;
      for (std::uint32_t f = 0; f < trace.file_count(); ++f) {
        const auto g = trace.dict->files[f].group;
        if (g == kNoGroup) continue;
        for (const auto& c : miner.snapshot(FileId(f))) {
          ++total;
          if (trace.dict->files[c.file.value()].group == g) ++intra;
        }
      }
      return total ? static_cast<double>(intra) / static_cast<double>(total)
                   : 0.0;
    };
    MinerOptions opts;
    opts.shards = 4;
    Table t({"miner", "ground-truth precision", "footprint"});
    for (const char* backend : {"farmer", "sharded"}) {
      const auto miner =
          make_miner(backend, fpa_config(trace), trace.dict, opts);
      miner->observe_batch(trace.records);
      t.add_row({miner->name(), pct(precision(*miner)),
                 fmt_bytes(miner->footprint_bytes())});
    }
    t.print(std::cout);
  }
  return 0;
}
