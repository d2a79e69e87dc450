// Micro-benchmarks (google-benchmark): the per-operation costs behind
// FARMER's "reasonable overhead" claim — similarity evaluation, graph
// updates, full pipeline ingest, predictor prediction and metadata-cache
// operations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "cache/metadata_cache.hpp"
#include "core/cominer.hpp"
#include "core/extractor.hpp"
#include "core/farmer.hpp"
#include "vsm/similarity.hpp"

namespace {

using namespace farmer;
using namespace farmer::bench;

const Trace& hp() { return paper_trace(TraceKind::kHP); }

void BM_SimilarityIPA(benchmark::State& state) {
  Interner in;
  SemanticVector a, b;
  a.user = in.intern("user1");
  a.process = in.intern("p1");
  a.host = in.intern("host1");
  intern_path_components("/home/user1/paper/a", in, a.path_components);
  b.user = in.intern("user1");
  b.process = in.intern("p2");
  b.host = in.intern("host1");
  intern_path_components("/home/user1/paper/b", in, b.path_components);
  const auto mask = AttributeMask::all_with_path();
  const Signature sa = build_signature(a, mask, PathMode::kIntegrated);
  const Signature sb = build_signature(b, mask, PathMode::kIntegrated);
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity(sa, sb));
  }
}
BENCHMARK(BM_SimilarityIPA);

void BM_MultisetIntersection(benchmark::State& state) {
  // Args = {|a|, |b|}, the sorted token-range sizes.
  const auto na = static_cast<std::size_t>(state.range(0));
  const auto nb = static_cast<std::size_t>(state.range(1));
  Rng rng(42);
  std::vector<TokenId> a, b;
  a.reserve(na);
  b.reserve(nb);
  for (std::size_t i = 0; i < na; ++i)
    a.emplace_back(static_cast<std::uint32_t>(rng.next_below(1u << 16)));
  for (std::size_t i = 0; i < nb; ++i)
    b.emplace_back(static_cast<std::uint32_t>(rng.next_below(1u << 16)));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        multiset_intersection(a.data(), a.size(), b.data(), b.size()));
  }
}
BENCHMARK(BM_MultisetIntersection)
    ->Args({8, 8});  // typical signature-vs-signature sizes

void BM_BuildSignature(benchmark::State& state) {
  Interner in;
  SemanticVector a;
  a.user = in.intern("user1");
  a.process = in.intern("p1");
  a.host = in.intern("host1");
  intern_path_components("/home/user1/paper/deep/dir/tree/a", in,
                         a.path_components);
  const auto mask = AttributeMask::all_with_path();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_signature(a, mask, PathMode::kIntegrated));
  }
}
BENCHMARK(BM_BuildSignature);

void BM_EvaluatePair(benchmark::State& state) {
  // Stage 3 steady state: one R(x, y) evaluation on the fetched
  // predecessor block and its fresh N_AB, including the Correlator-List
  // upsert, on signatures extracted from real HP-trace records.
  const Trace& trace = hp();
  const FarmerConfig cfg = fpa_config(trace);
  SignatureGraph g({cfg.max_successors, cfg.correlator_capacity});
  CoMiner miner(cfg, g);
  const Extractor ex(trace.dict);
  const TraceRecord& ra = trace.records[0];
  std::size_t j = 1;
  while (j < trace.records.size() && trace.records[j].file == ra.file) ++j;
  const TraceRecord& rb = trace.records[j % trace.records.size()];
  SemanticVector va, vb;
  ex.extract(ra, va);
  ex.extract(rb, vb);
  const Signature sa = build_signature(va, cfg.attributes, cfg.path_mode);
  const Signature sb = build_signature(vb, cfg.attributes, cfg.path_mode);
  const SignatureGraph::NodeRef a = g.node(ra.file);
  g.set_payload(a, sa);
  g.record_access(a);
  g.record_access(g.node(rb.file));
  const double nab = g.add_transition(a, rb.file, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.evaluate_pair(a, rb.file, sb, nab));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvaluatePair);

void BM_GraphTransition(benchmark::State& state) {
  CorrelationGraph g;
  Rng rng(1);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const FileId pred(i % 4096);
    const FileId succ(static_cast<std::uint32_t>(rng.next_below(4096)));
    const CorrelationGraph::NodeRef n = g.node(pred);
    g.record_access(n);
    benchmark::DoNotOptimize(g.add_transition(n, succ, 1.0));
    ++i;
  }
}
BENCHMARK(BM_GraphTransition);

void BM_FarmerObserve(benchmark::State& state) {
  // Backend comes from the factory (FARMER_MINER), so the same binary
  // measures serial and sharded ingest.
  const Trace& trace = hp();
  const auto model = make_bench_miner(trace, fpa_config(trace));
  std::size_t i = 0;
  for (auto _ : state) {
    model->observe(trace.records[i % trace.records.size()]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FarmerObserve);

void BM_ObserveKernel(benchmark::State& state) {
  // The serial observe kernel in isolation: a plain Farmer (no factory, no
  // sharding, no queues) replaying the HP trace. This is the records/s
  // number the ingest-kernel optimizations (invariant hoisting, order
  // repair, one block fetch per node per record) move directly.
  const Trace& trace = hp();
  Farmer model(fpa_config(trace), trace.dict);
  std::size_t i = 0;
  for (auto _ : state) {
    model.observe(trace.records[i % trace.records.size()]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObserveKernel);

void BM_FpaPredict(benchmark::State& state) {
  const Trace& trace = hp();
  auto fpa = make_fpa(trace);
  for (const auto& r : trace.records) fpa.observe(r);
  std::size_t i = 0;
  PredictionList out;
  for (auto _ : state) {
    out.clear();
    fpa.predict(trace.records[i % trace.records.size()], 4, out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK(BM_FpaPredict);

void BM_FpaPredictFetchable(benchmark::State& state) {
  // Both sides of FPA's residency gate over 4-shard "sharded". Arg(0):
  // everything resident, so any_listed() rejects every request from the
  // shard lists in place, with no merge. Arg(1): nothing resident, so
  // every request with a Correlator List merges and ranks.
  const Trace& trace = hp();
  MinerOptions opts;
  opts.shards = 4;
  auto miner = make_miner("sharded", fpa_config(trace), trace.dict, opts);
  miner->observe_batch(trace.records);
  FpaPredictor fpa(std::move(miner));
  const bool nothing_resident = state.range(0) == 1;
  const auto fetchable = [nothing_resident](FileId) {
    return nothing_resident;
  };
  std::size_t i = 0;
  PredictionList out;
  for (auto _ : state) {
    out.clear();
    fpa.predict_fetchable(trace.records[i % trace.records.size()], 4,
                          fetchable, out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
  state.SetLabel(nothing_resident ? "nothing resident"
                                  : "everything resident");
}
BENCHMARK(BM_FpaPredictFetchable)->Arg(0)->Arg(1);

void BM_FootprintBytes(benchmark::State& state) {
  // One footprint_bytes() call right after an observe, the way the serving
  // loop samples its per-window gauge, on a warmed 4-shard "sharded" miner.
  // Only the footprint call is timed (manual time).
  const Trace& trace = hp();
  MinerOptions opts;
  opts.shards = 4;
  opts.apply_threads = 1;
  const auto miner = make_miner("sharded", fpa_config(trace), trace.dict, opts);
  miner->observe_batch(trace.records);
  std::size_t i = 0;
  for (auto _ : state) {
    miner->observe(trace.records[i % trace.records.size()]);
    ++i;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(miner->footprint_bytes());
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
}
BENCHMARK(BM_FootprintBytes)->UseManualTime();

void BM_NexusObserve(benchmark::State& state) {
  const Trace& trace = hp();
  NexusPredictor nexus;
  std::size_t i = 0;
  for (auto _ : state) {
    nexus.observe(trace.records[i % trace.records.size()]);
    ++i;
  }
}
BENCHMARK(BM_NexusObserve);

void BM_CacheAccess(benchmark::State& state) {
  MetadataCache cache(4096);
  Rng rng(7);
  for (auto _ : state) {
    const FileId f(static_cast<std::uint32_t>(rng.next_below(8192)));
    if (!cache.access(f)) cache.insert_demand(f);
  }
}
BENCHMARK(BM_CacheAccess);

void BM_CacheContains(benchmark::State& state) {
  // serve()'s shape: the MDS cache holds 5% of the files, and most residency
  // tests (FPA's fetchable gate, the MDS's needs-fetch check) ask about a
  // file it lacks. Probes are drawn up front so the loop times contains().
  constexpr std::uint32_t kFiles = 100'000;
  MetadataCache cache(kFiles / 20);
  Rng rng(7);
  while (cache.size() < cache.capacity())
    cache.insert_demand(
        FileId(static_cast<std::uint32_t>(rng.next_below(kFiles))));
  constexpr std::size_t kProbes = 1u << 16;
  std::vector<FileId> probes(kProbes);
  for (FileId& f : probes)
    f = FileId(static_cast<std::uint32_t>(rng.next_below(kFiles)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.contains(probes[i++ % kProbes]));
  }
}
BENCHMARK(BM_CacheContains);

void BM_EndToEndReplay(benchmark::State& state) {
  // Whole-pipeline throughput: events per second through FPA + cache.
  const Trace& trace = hp();
  for (auto _ : state) {
    auto fpa = make_fpa(trace);
    const auto r = replay_trace(trace, fpa, replay_config(trace));
    benchmark::DoNotOptimize(r.hit_ratio());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.event_count()));
}
BENCHMARK(BM_EndToEndReplay)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN(), except that a --benchmark_filter matching no benchmark
// is a failed run (exit 1), not an empty success.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ran == 0 ? 1 : 0;
}
