// google-benchmark timings backing the paper's complexity claims:
// O(n²) agglomerative clustering (Section V-A), O(k·n²) (k,1)/(k,k)
// pipelines (Section V-B), the consistency-graph + matchable-edge
// machinery of Section V-C (naive per-edge Hopcroft–Karp vs matching+SCC),
// and the verifier costs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kanon/algo/agglomerative.h"
#include "kanon/algo/anonymizer.h"
#include "kanon/algo/forest.h"
#include "kanon/algo/global_anonymizer.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/check.h"
#include "kanon/graph/consistency_graph.h"
#include "kanon/common/parallel.h"
#include "kanon/common/timer.h"
#include "kanon/graph/matchable_edges.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/shard/driver.h"

namespace kanon {
namespace {

void BM_Agglomerative(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  AgglomerativeOptions options;
  options.distance = static_cast<DistanceFunction>(state.range(1));
  for (auto _ : state) {
    Result<Clustering> c = AgglomerativeCluster(w.dataset, loss, 10, options);
    KANON_CHECK(c.ok());
    benchmark::DoNotOptimize(c.value().clusters.size());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Agglomerative)
    ->ArgsProduct({{250, 500, 1000, 2000},
                   {static_cast<int>(DistanceFunction::kWeighted),
                    static_cast<int>(DistanceFunction::kRatio)}})
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMillisecond);

void BM_ModifiedAgglomerative(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  AgglomerativeOptions options;
  options.modified = true;
  for (auto _ : state) {
    Result<Clustering> c = AgglomerativeCluster(w.dataset, loss, 10, options);
    KANON_CHECK(c.ok());
    benchmark::DoNotOptimize(c.value().clusters.size());
  }
}
BENCHMARK(BM_ModifiedAgglomerative)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Forest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  for (auto _ : state) {
    Result<Clustering> c = ForestCluster(w.dataset, loss, 10);
    KANON_CHECK(c.ok());
    benchmark::DoNotOptimize(c.value().clusters.size());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Forest)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMillisecond);

void BM_KKPipeline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  for (auto _ : state) {
    Result<GeneralizedTable> t =
        KKAnonymize(w.dataset, loss, k, K1Algorithm::kGreedyExpansion);
    KANON_CHECK(t.ok());
    benchmark::DoNotOptimize(t.value().num_rows());
  }
}
BENCHMARK(BM_KKPipeline)
    ->ArgsProduct({{500, 1000, 2000}, {5, 20}})
    ->Unit(benchmark::kMillisecond);

void BM_Global1K(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  Result<GeneralizedTable> kk =
      KKAnonymize(w.dataset, loss, 5, K1Algorithm::kGreedyExpansion);
  KANON_CHECK(kk.ok());
  for (auto _ : state) {
    Result<GlobalAnonymizationResult> g =
        MakeGlobal1KAnonymous(w.dataset, loss, 5, kk.value());
    KANON_CHECK(g.ok());
    benchmark::DoNotOptimize(g.value().stats.upgrade_steps);
  }
}
BENCHMARK(BM_Global1K)->Arg(250)->Arg(500)->Arg(1000)->Unit(
    benchmark::kMillisecond);

void BM_VerifyKK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  Result<GeneralizedTable> kk =
      KKAnonymize(w.dataset, loss, 5, K1Algorithm::kGreedyExpansion);
  KANON_CHECK(kk.ok());
  for (auto _ : state) {
    Result<bool> is_kk = IsKKAnonymous(w.dataset, kk.value(), 5);
    KANON_CHECK(is_kk.ok() && is_kk.value());
    benchmark::DoNotOptimize(is_kk);
  }
}
BENCHMARK(BM_VerifyKK)->Arg(500)->Arg(1000)->Arg(2000)->Unit(
    benchmark::kMillisecond);

void BM_MatchableEdgesFast(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  Result<GeneralizedTable> kk =
      KKAnonymize(w.dataset, loss, 5, K1Algorithm::kGreedyExpansion);
  KANON_CHECK(kk.ok());
  const BipartiteGraph graph = BuildConsistencyGraph(w.dataset, kk.value());
  for (auto _ : state) {
    Result<MatchableEdgeSets> m = ComputeMatchableEdges(graph);
    KANON_CHECK(m.ok());
    benchmark::DoNotOptimize(m.value().matches.size());
  }
}
BENCHMARK(BM_MatchableEdgesFast)->Arg(250)->Arg(1000)->Unit(
    benchmark::kMillisecond);

void BM_MatchableEdgesNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  Result<GeneralizedTable> kk =
      KKAnonymize(w.dataset, loss, 5, K1Algorithm::kGreedyExpansion);
  KANON_CHECK(kk.ok());
  const BipartiteGraph graph = BuildConsistencyGraph(w.dataset, kk.value());
  for (auto _ : state) {
    Result<MatchableEdgeSets> m = ComputeMatchableEdgesNaive(graph);
    KANON_CHECK(m.ok());
    benchmark::DoNotOptimize(m.value().matches.size());
  }
}
BENCHMARK(BM_MatchableEdgesNaive)->Arg(250)->Unit(benchmark::kMillisecond);

// Thread-scaling variants of the two heaviest pipelines. arg0 = n,
// arg1 = worker threads; outputs are byte-identical across arg1 (the
// determinism suite asserts this), so only the wall clock moves.
void BM_AgglomerativeThreads(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  AgglomerativeOptions options;
  options.num_threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Result<Clustering> c = AgglomerativeCluster(w.dataset, loss, 10, options);
    KANON_CHECK(c.ok());
    benchmark::DoNotOptimize(c.value().clusters.size());
  }
}
BENCHMARK(BM_AgglomerativeThreads)
    ->ArgsProduct({{1000, 2000}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_KKPipelineThreads(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  const int num_threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Result<GeneralizedTable> t = KKAnonymize(
        w.dataset, loss, 10, K1Algorithm::kGreedyExpansion, nullptr,
        num_threads);
    KANON_CHECK(t.ok());
    benchmark::DoNotOptimize(t.value().num_rows());
  }
}
BENCHMARK(BM_KKPipelineThreads)
    ->ArgsProduct({{1000, 2000}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

// --speedup_json mode: one JSON line per (pipeline, thread count) with the
// wall time and the speedup over the single-threaded run of the same
// pipeline — machine-readable scaling data for CI and the docs. Also
// asserts the determinism contract along the way: every thread count must
// reproduce the single-threaded table byte for byte.
int RunSpeedupJson(size_t n) {
  const Workload w = bench::MustArtWorkload(n, 99);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  std::vector<int> counts = {1, 2, 4};
  if (DefaultNumThreads() > 4) counts.push_back(DefaultNumThreads());

  struct Pipeline {
    AnonymizationMethod method;
    Result<GeneralizedTable> (*run)(const Workload&, const PrecomputedLoss&,
                                    int);
  };
  const Pipeline pipelines[] = {
      {AnonymizationMethod::kAgglomerative,
       [](const Workload& w, const PrecomputedLoss& loss, int threads) {
         AgglomerativeOptions options;
         options.num_threads = threads;
         return AgglomerativeKAnonymize(w.dataset, loss, 10, options);
       }},
      {AnonymizationMethod::kKKGreedyExpansion,
       [](const Workload& w, const PrecomputedLoss& loss, int threads) {
         return KKAnonymize(w.dataset, loss, 10,
                            K1Algorithm::kGreedyExpansion, nullptr, threads);
       }},
  };
  for (const Pipeline& p : pipelines) {
    double baseline = 0.0;
    Result<GeneralizedTable> reference = Status::Internal("unset");
    for (int threads : counts) {
      Timer timer;
      Result<GeneralizedTable> table = p.run(w, loss, threads);
      const double seconds = timer.ElapsedSeconds();
      KANON_CHECK(table.ok(), table.status().ToString());
      if (threads == 1) {
        baseline = seconds;
        reference = std::move(table);
      } else {
        KANON_CHECK(table.value() == reference.value(),
                    "thread count changed the output table");
      }
      std::printf(
          "{\"bench\":\"%s\",\"n\":%zu,\"threads\":%d,"
          "\"seconds\":%.6f,\"speedup\":%.3f}\n",
          MethodShortName(p.method), n, threads, seconds,
          seconds > 0.0 ? baseline / seconds : 0.0);
    }
  }
  return 0;
}

// --shard_json mode: sweeps the out-of-core sharded driver over shard
// counts on one ART workload and prints one JSON line per count with the
// wall time, the global loss (the utility price of partitioning), and the
// robustness counters — the data behind docs/sharding.md's scaling notes.
// shards=1 is the in-core baseline; larger counts trade loss for a
// working set that shrinks quadratically per shard.
int RunShardJson(size_t n) {
  const Workload w = bench::MustArtWorkload(n, 99);
  namespace fs = std::filesystem;
  const fs::path scratch =
      fs::temp_directory_path() / ("kanon_shard_bench_" + std::to_string(n));
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                              size_t{16}}) {
    AnonymizerConfig config;
    config.k = 10;
    config.method = AnonymizationMethod::kAgglomerative;
    shard::ShardOptions options;
    options.num_shards = shards;
    options.work_dir = (scratch / std::to_string(shards)).string();
    Timer timer;
    Result<shard::ShardedResult> result = shard::ShardedAnonymize(
        w.dataset, w.scheme, EntropyMeasure(), config, options);
    const double seconds = timer.ElapsedSeconds();
    KANON_CHECK(result.ok(), result.status().ToString());
    const Result<bool> valid = IsKAnonymous(result.value().table, 10);
    KANON_CHECK(valid.ok() && valid.value(),
                "sharded output lost the k-guarantee");
    std::printf(
        "{\"bench\":\"sharded-agglomerative\",\"n\":%zu,\"k\":10,"
        "\"shards\":%zu,\"seconds\":%.6f,\"loss\":%.6f,"
        "\"boundary_repaired\":%zu,\"records_suppressed\":%zu,"
        "\"degraded\":%s}\n",
        n, shards, seconds, result.value().loss,
        result.value().boundary_repaired, result.value().records_suppressed,
        result.value().degraded ? "true" : "false");
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) {
  const kanon::FlagParser flags =
      kanon::bench::ParseBenchFlags(argc, argv, {"speedup_n", "shard_n"});
  if (flags.Has("shard_json")) {
    return kanon::RunShardJson(
        static_cast<size_t>(flags.GetInt("shard_n", 8000)));
  }
  if (flags.Has("speedup_json")) {
    return kanon::RunSpeedupJson(
        static_cast<size_t>(flags.GetInt("speedup_n", 2000)));
  }
  // Everything else goes to google-benchmark.
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speedup_json") != 0 &&
        std::strncmp(argv[i], "--speedup_n=", 12) != 0 &&
        std::strcmp(argv[i], "--shard_json") != 0 &&
        std::strncmp(argv[i], "--shard_n=", 10) != 0) {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
