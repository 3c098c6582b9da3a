#include "kanon/algo/anonymizer.h"

#include <optional>
#include <string>
#include <utility>
#include <variant>
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
// agglomerative methods read the distance; AgglomerativeCluster runs the
// engine instantiated for it.
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

// The run request's fields. Their defaults are AnonymizerConfig{}'s, and
// ReadRunRequest names the measure's.
constexpr RunField kRunFields[] = {
    {"k", "k", RunField::Kind::kCount},
    {"method", "method", RunField::Kind::kName},
    {"distance", "distance", RunField::Kind::kName},
    {"measure", "measure", RunField::Kind::kName},
    {"attr_weights", "attr-weights", RunField::Kind::kNumbers},
    {"timeout_ms", "timeout-ms", RunField::Kind::kCount},
    {"max_steps", "max-steps", RunField::Kind::kCount},
};

// Reads `field` into `*out`, which keeps its value when the field is absent.
template <typename T>
Status ReadField(const RunFieldLookup& lookup, const RunField& field, T* out) {
  Result<RunFieldValue> value = lookup(field);
  if (!value.ok()) return value.status();
  if (!std::holds_alternative<std::monostate>(*value)) {
    *out = std::get<T>(std::move(*value));
  }
  return Status::OK();
}

// Reads a count field, which must be at least `min`.
Status ReadCount(const RunFieldLookup& lookup, const RunField& field,
                 int64_t min, int64_t* out) {
  KANON_RETURN_NOT_OK(ReadField(lookup, field, out));
  if (*out >= min) return Status::OK();
  return Status::InvalidArgument(std::string(field.param) +
                                 " must be at least " + std::to_string(min) +
                                 ", got " + std::to_string(*out));
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

namespace {

// Publishes the engine counters as `engine.<field>` counters plus the
// `engine.closure_hit_rate` gauge, all deterministic. Counters add up over
// runs that share a registry; gauges keep the last run's value.
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

// Publishes the `run.*` outcome metrics (only `run.elapsed_seconds` is
// nondeterministic) and the `cluster.size` histogram of the table's classes.
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

}  // namespace

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

std::span<const RunField> RunFields() { return kRunFields; }

Result<RunRequest> ReadRunRequest(const RunFieldLookup& lookup) {
  const auto& [k_field, method_field, distance_field, measure_field,
               weights_field, timeout_field, steps_field] = kRunFields;
  RunRequest request;
  AnonymizerConfig& config = request.config;
  int64_t k = static_cast<int64_t>(config.k);
  std::string method = MethodShortName(config.method);
  std::string distance = DistanceShortName(config.distance);
  std::string measure = "EM";
  KANON_RETURN_NOT_OK(ReadCount(lookup, k_field, 1, &k));
  KANON_RETURN_NOT_OK(ReadField(lookup, method_field, &method));
  KANON_RETURN_NOT_OK(ReadField(lookup, distance_field, &distance));
  KANON_RETURN_NOT_OK(ReadField(lookup, measure_field, &measure));
  KANON_RETURN_NOT_OK(ReadField(lookup, weights_field, &config.attr_weights));
  KANON_RETURN_NOT_OK(ReadCount(lookup, timeout_field, 0, &request.timeout_ms));
  KANON_RETURN_NOT_OK(ReadCount(lookup, steps_field, 0, &request.max_steps));
  config.k = static_cast<size_t>(k);
  KANON_ASSIGN_OR_RETURN(config.method, ParseMethodShortName(method));
  KANON_ASSIGN_OR_RETURN(config.distance, ParseDistanceShortName(distance));
  KANON_ASSIGN_OR_RETURN(request.measure, MakeMeasure(measure));
  return request;
}

Result<RunFieldValue> RunFieldFromFlags(const FlagParser& flags,
                                        const RunField& field) {
  if (!flags.Has(field.flag)) return RunFieldValue();
  if (field.kind == RunField::Kind::kName) {
    return RunFieldValue(flags.GetString(field.flag, ""));
  }
  if (field.kind == RunField::Kind::kNumbers) {
    KANON_ASSIGN_OR_RETURN(std::vector<double> numbers,
                           flags.GetDoubleList(field.flag));
    return RunFieldValue(std::move(numbers));
  }
  if (Status s = flags.CheckCounts({field.flag}); !s.ok()) return s;
  return RunFieldValue(flags.GetInt(field.flag, 0));
}

}  // namespace kanon
