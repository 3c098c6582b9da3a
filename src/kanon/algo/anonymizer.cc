#include "kanon/algo/anonymizer.h"

#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/agglomerative_engine.h"
#include "kanon/algo/forest.h"
#include "kanon/algo/global_anonymizer.h"
#include "kanon/algo/global_recoding.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/algo/policy.h"
#include "kanon/algo/policy_weighted.h"
#include "kanon/common/timer.h"

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

// The whole method switch, templated on an already-dispatched policy: from
// here down no code inspects the DistanceFunction enum again — every
// pipeline runs on the policy's inlined hooks. `loss` is the substrate the
// pipeline prices clusters on (the reweighted copy when attribute weights
// are set), which may differ from the loss the caller reports Π under.
template <typename Policy>
Result<GeneralizedTable> RunPipeline(const Dataset& dataset,
                                     const PrecomputedLoss& loss,
                                     const AnonymizerConfig& config,
                                     const Policy& policy,
                                     EngineCounters* counters) {
  RunContext* const ctx = config.run_context;
  switch (config.method) {
    case AnonymizationMethod::kAgglomerative:
    case AnonymizationMethod::kModifiedAgglomerative: {
      AgglomerativeOptions options;
      options.distance = config.distance;
      options.params = config.params;
      options.modified =
          config.method == AnonymizationMethod::kModifiedAgglomerative;
      options.run_context = ctx;
      options.num_threads = config.num_threads;
      options.counters = counters;
      return AgglomerativeKAnonymizeWithPolicy(dataset, loss, config.k,
                                               options, policy);
    }
    case AnonymizationMethod::kForest:
      return ForestKAnonymizeWithPolicy(dataset, loss, config.k, policy, ctx,
                                        counters);
    case AnonymizationMethod::kKKNearestNeighbors:
      return KKAnonymizeWithPolicy(dataset, loss, config.k,
                                   K1Algorithm::kNearestNeighbors, policy, ctx,
                                   config.num_threads, counters);
    case AnonymizationMethod::kKKGreedyExpansion:
      return KKAnonymizeWithPolicy(dataset, loss, config.k,
                                   K1Algorithm::kGreedyExpansion, policy, ctx,
                                   config.num_threads, counters);
    case AnonymizationMethod::kGlobal: {
      Result<GeneralizedTable> kk = KKAnonymizeWithPolicy(
          dataset, loss, config.k, K1Algorithm::kGreedyExpansion, policy, ctx,
          config.num_threads, counters);
      if (!kk.ok()) return kk.status();
      Result<GlobalAnonymizationResult> global =
          MakeGlobal1KAnonymousWithPolicy(dataset, loss, config.k,
                                          std::move(kk).value(), policy, ctx,
                                          counters);
      if (!global.ok()) return global.status();
      return std::move(global->table);
    }
    case AnonymizationMethod::kFullDomain: {
      Result<GlobalRecodingResult> recoded = GlobalRecodingKAnonymizeWithPolicy(
          dataset, loss, config.k, policy, ctx, config.num_threads, counters);
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
  metrics->GetCounter("engine.merges")->Set(counters.merges);
  metrics->GetCounter("engine.rescans")->Set(counters.rescans);
  metrics->GetCounter("engine.heap_rebuilds")->Set(counters.heap_rebuilds);
  metrics->GetCounter("engine.closure_hits")->Set(counters.closure_hits);
  metrics->GetCounter("engine.closure_misses")->Set(counters.closure_misses);
  metrics->GetCounter("engine.upgrade_steps")->Set(counters.upgrade_steps);
  metrics->GetCounter("engine.parallel_chunks")->Set(counters.parallel_chunks);
  metrics->GetGauge("engine.closure_hit_rate")
      ->Set(counters.closure_hit_rate());
}

void PublishResultMetrics(const AnonymizationResult& result,
                          MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("run.rows")->Set(result.table.num_rows());
  metrics->GetCounter("run.iterations_completed")
      ->Set(result.iterations_completed);
  metrics->GetCounter("run.records_suppressed")
      ->Set(result.records_suppressed);
  metrics->GetCounter("run.degraded")->Set(result.degraded ? 1 : 0);
  metrics->GetGauge("run.loss")->Set(result.loss);
  metrics->GetGauge("run.elapsed_seconds", /*deterministic=*/false)
      ->Set(result.elapsed_seconds);
  // Equivalence-class (cluster) size distribution of the published table.
  std::map<GeneralizedRecord, size_t> classes;
  for (size_t row = 0; row < result.table.num_rows(); ++row) {
    ++classes[result.table.record(row)];
  }
  Histogram* const sizes = metrics->GetHistogram(
      "cluster.size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256});
  for (const auto& [record, size] : classes) {
    sizes->Observe(static_cast<double>(size));
  }
  metrics->GetCounter("run.clusters")->Set(classes.size());
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
  // The one runtime distance dispatch of the whole run: the enum becomes a
  // compile-time policy here, and RunPipeline's method switch runs on the
  // policy's inlined hooks (docs/policy_engine.md).
  Result<GeneralizedTable> table = DispatchDistancePolicy(
      config.distance, config.params,
      [&](const auto& policy) -> Result<GeneralizedTable> {
        using Base = std::decay_t<decltype(policy)>;
        if (config.attr_weights.empty()) {
          return RunPipeline(dataset, loss, config, policy, &counters);
        }
        // Weighted attributes: bind the reweighted substrate to the policy
        // (algo/policy_weighted.h) and run the pipeline against it.
        Result<AttrWeightedPolicy<Base>> weighted =
            AttrWeightedPolicy<Base>::Create(policy, loss,
                                             config.attr_weights);
        if (!weighted.ok()) return weighted.status();
        if (config.method == AnonymizationMethod::kAgglomerative ||
            config.method == AnonymizationMethod::kModifiedAgglomerative) {
          // The header-templated agglomerative engine instantiates directly
          // on the new policy type — the no-pipeline-edit extensibility
          // contract, exercised on the main path.
          AgglomerativeOptions options;
          options.distance = config.distance;
          options.params = config.params;
          options.modified =
              config.method == AnonymizationMethod::kModifiedAgglomerative;
          options.run_context = config.run_context;
          options.num_threads = config.num_threads;
          options.counters = &counters;
          return AgglomerativeKAnonymizeWithPolicy(
              dataset, weighted->loss(), config.k, options, *weighted);
        }
        // The .cc-templated pipelines are instantiated for the five base
        // policies; AttrWeightedPolicy inherits the Base hooks unchanged,
        // so they run on the Base facet over the reweighted substrate.
        return RunPipeline(dataset, weighted->loss(), config,
                           static_cast<const Base&>(*weighted), &counters);
      });
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
