#include "kanon/algo/anonymizer.h"

#include <optional>
#include <utility>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/forest.h"
#include "kanon/algo/global_anonymizer.h"
#include "kanon/algo/global_recoding.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/common/timer.h"
#include "kanon/loss/table_metrics.h"

namespace kanon {

namespace {

// The method vocabulary: one row per AnonymizationMethod.
struct MethodInfo {
  AnonymizationMethod method;
  const char* short_name;
  const char* long_name;
  // Root-span label; a literal because SpanEvent stores const char*.
  const char* span_name;
  AnonymityNotion notion;
};

constexpr MethodInfo kMethods[] = {
    {AnonymizationMethod::kAgglomerative, "agglomerative", "agglomerative",
     "pipeline/agglomerative", AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kModifiedAgglomerative, "modified",
     "modified-agglomerative", "pipeline/modified-agglomerative",
     AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kForest, "forest", "forest", "pipeline/forest",
     AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kKKNearestNeighbors, "kk-nn", "kk-nearest-neighbors",
     "pipeline/kk-nearest-neighbors", AnonymityNotion::kKK},
    {AnonymizationMethod::kKKGreedyExpansion, "kk-greedy",
     "kk-greedy-expansion", "pipeline/kk-greedy-expansion",
     AnonymityNotion::kKK},
    {AnonymizationMethod::kGlobal, "global", "global-1k", "pipeline/global-1k",
     AnonymityNotion::kGlobalOneK},
    {AnonymizationMethod::kFullDomain, "full-domain", "full-domain",
     "pipeline/full-domain", AnonymityNotion::kKAnonymity},
};

const MethodInfo& Info(AnonymizationMethod method) {
  for (const MethodInfo& info : kMethods) {
    if (info.method == method) return info;
  }
  KANON_CHECK(false, "unknown anonymization method");
  return kMethods[0];
}

// The whole method switch. `loss` is the substrate the pipeline prices
// clusters on (the reweighted copy when attribute weights are set), which
// may differ from the loss the caller reports Π under. Only the
// agglomerative methods read the distance; AgglomerativeCluster turns it
// into a compile-time policy.
Result<GeneralizedTable> RunPipeline(const Dataset& dataset,
                                     const PrecomputedLoss& loss,
                                     const AnonymizerConfig& config,
                                     EngineCounters* counters) {
  RunContext* const ctx = config.run_context;
  switch (config.method) {
    case AnonymizationMethod::kAgglomerative:
    case AnonymizationMethod::kModifiedAgglomerative: {
      AgglomerativeOptions options;
      options.distance = config.distance;
      options.modified =
          config.method == AnonymizationMethod::kModifiedAgglomerative;
      options.run_context = ctx;
      options.num_threads = config.num_threads;
      options.counters = counters;
      return AgglomerativeKAnonymize(dataset, loss, config.k, options);
    }
    case AnonymizationMethod::kForest:
      return ForestKAnonymize(dataset, loss, config.k, ctx, counters);
    case AnonymizationMethod::kKKNearestNeighbors:
      return KKAnonymize(dataset, loss, config.k,
                         K1Algorithm::kNearestNeighbors, ctx,
                         config.num_threads, counters);
    case AnonymizationMethod::kKKGreedyExpansion:
      return KKAnonymize(dataset, loss, config.k,
                         K1Algorithm::kGreedyExpansion, ctx,
                         config.num_threads, counters);
    case AnonymizationMethod::kGlobal: {
      Result<GeneralizedTable> kk =
          KKAnonymize(dataset, loss, config.k, K1Algorithm::kGreedyExpansion,
                      ctx, config.num_threads, counters);
      if (!kk.ok()) return kk.status();
      Result<GlobalAnonymizationResult> global = MakeGlobal1KAnonymous(
          dataset, loss, config.k, std::move(kk).value(), ctx, counters);
      if (!global.ok()) return global.status();
      return std::move(global->table);
    }
    case AnonymizationMethod::kFullDomain: {
      Result<GlobalRecodingResult> recoded = GlobalRecodingKAnonymize(
          dataset, loss, config.k, ctx, config.num_threads, counters);
      if (!recoded.ok()) return recoded.status();
      return std::move(recoded->table);
    }
  }
  return Status::Internal("unreachable anonymization method");
}

}  // namespace

const char* AnonymizationMethodName(AnonymizationMethod method) {
  return Info(method).long_name;
}

const char* MethodShortName(AnonymizationMethod method) {
  return Info(method).short_name;
}

Result<AnonymizationMethod> ParseMethodShortName(const std::string& name) {
  for (const MethodInfo& info : kMethods) {
    if (name == info.short_name) return info.method;
  }
  return Status::InvalidArgument("unknown method '" + name + "'");
}

const std::vector<AnonymizationMethod>& AllMethods() {
  static const std::vector<AnonymizationMethod> methods = [] {
    std::vector<AnonymizationMethod> all;
    for (const MethodInfo& info : kMethods) all.push_back(info.method);
    return all;
  }();
  return methods;
}

AnonymityNotion PromisedNotion(AnonymizationMethod method) {
  return Info(method).notion;
}

void PublishCounters(const EngineCounters& counters, MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("engine.merges")->Add(counters.merges);
  metrics->GetCounter("engine.rescans")->Add(counters.rescans);
  metrics->GetCounter("engine.heap_rebuilds")->Add(counters.heap_rebuilds);
  metrics->GetCounter("engine.closure_hits")->Add(counters.closure_hits);
  metrics->GetCounter("engine.closure_misses")->Add(counters.closure_misses);
  metrics->GetCounter("engine.upgrade_steps")->Add(counters.upgrade_steps);
  metrics->GetCounter("engine.parallel_chunks")->Add(counters.parallel_chunks);
  metrics->GetGauge("engine.closure_hit_rate")
      ->Set(counters.closure_hit_rate());
}

void PublishResultMetrics(const AnonymizationResult& result,
                          MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("run.rows")->Add(result.table.num_rows());
  metrics->GetCounter("run.iterations_completed")
      ->Add(result.iterations_completed);
  metrics->GetCounter("run.records_suppressed")
      ->Add(result.records_suppressed);
  metrics->GetCounter("run.degraded")->Add(result.degraded ? 1 : 0);
  metrics->GetGauge("run.loss")->Set(result.loss);
  metrics->GetGauge("run.elapsed_seconds", /*deterministic=*/false)
      ->Set(result.elapsed_seconds);
  // Equivalence-class (cluster) size distribution of the published table.
  const std::vector<std::vector<uint32_t>> classes =
      GroupIdenticalRecords(result.table);
  Histogram* const sizes = metrics->GetHistogram(
      "cluster.size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256});
  for (const std::vector<uint32_t>& rows : classes) {
    sizes->Observe(static_cast<double>(rows.size()));
  }
  metrics->GetCounter("run.clusters")->Add(classes.size());
}

Result<AnonymizationResult> Anonymize(const Dataset& dataset,
                                      const PrecomputedLoss& loss,
                                      const AnonymizerConfig& config) {
  Timer timer;
  RunContext* const ctx = config.run_context;
  // Install the run's telemetry sinks for this thread: engines and the
  // parallel sweep issuer pick them up via CurrentTracer()/CurrentMetrics().
  const ScopedTelemetry telemetry(config.tracer, config.metrics);
  PhaseSpan pipeline_span(config.tracer, Info(config.method).span_name);
  EngineCounters counters;
  // Attribute weights only reweight the cost substrate: the pipeline prices
  // clusters on the reweighted copy, and Π is still reported under `loss`.
  std::optional<PrecomputedLoss> weighted;
  if (!config.attr_weights.empty()) {
    Result<PrecomputedLoss> reweighted =
        loss.WithAttributeWeights(config.attr_weights);
    if (!reweighted.ok()) return reweighted.status();
    weighted = std::move(reweighted).value();
  }
  Result<GeneralizedTable> table = RunPipeline(
      dataset, weighted.has_value() ? *weighted : loss, config, &counters);
  if (!table.ok()) return table.status();

  AnonymizationResult result{std::move(table).value(),
                             0.0,
                             0.0,
                             false,
                             StopReason::kNone,
                             0,
                             0,
                             std::string(),
                             counters};
  result.loss = loss.TableLoss(result.table);
  result.elapsed_seconds = timer.ElapsedSeconds();
  if (ctx != nullptr) {
    const RunStats& stats = ctx->stats();
    result.degraded = stats.degraded;
    result.stop_reason = stats.stop_reason;
    result.iterations_completed = stats.iterations_completed;
    result.records_suppressed = stats.records_suppressed;
    result.degraded_stage = stats.degraded_stage;
  }
  PublishCounters(counters, config.metrics);
  PublishResultMetrics(result, config.metrics);
  return result;
}

}  // namespace kanon
