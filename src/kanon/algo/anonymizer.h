#ifndef KANON_ALGO_ANONYMIZER_H_
#define KANON_ALGO_ANONYMIZER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "kanon/algo/core/engine_counters.h"
#include "kanon/algo/distance.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/loss/precomputed_loss.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

/// Every anonymization pipeline in the library, behind one switch.
enum class AnonymizationMethod {
  /// Algorithm 1 with a configurable distance function.
  kAgglomerative,
  /// Algorithms 1+2 (ripe clusters shrunk back to size k).
  kModifiedAgglomerative,
  /// The forest baseline of Aggarwal et al.
  kForest,
  /// (k,k): Algorithm 3 (nearest neighbors) + Algorithm 5.
  kKKNearestNeighbors,
  /// (k,k): Algorithm 4 (greedy expansion) + Algorithm 5.
  kKKGreedyExpansion,
  /// Global (1,k): Algorithm 4 + Algorithm 5 + Algorithm 6.
  kGlobal,
  /// Full-domain (global-recoding) baseline — one level per attribute
  /// (Section III's comparison model; requires laminar hierarchies).
  kFullDomain,
};

/// Long name, e.g. "modified-agglomerative": the golden files, the
/// --stats-json "method" field and the shard-manifest fingerprints use it.
const char* AnonymizationMethodName(AnonymizationMethod method);

/// The run vocabulary's method names (agglomerative, modified, forest,
/// kk-nn, kk-greedy, global, full-domain): kanon_cli --method, the kanond
/// submit param, .repro files and kanon_check failure kinds.
const char* MethodShortName(AnonymizationMethod method);
/// Inverse of MethodShortName; unknown names are InvalidArgument.
Result<AnonymizationMethod> ParseMethodShortName(const std::string& name);

/// All seven pipelines, in enum order.
const std::vector<AnonymizationMethod>& AllMethods();

/// The anonymity notion a pipeline promises: the contract every output
/// path verifies before it publishes.
AnonymityNotion PromisedNotion(AnonymizationMethod method);

struct AnonymizerConfig {
  size_t k = 5;
  AnonymizationMethod method = AnonymizationMethod::kAgglomerative;
  /// Used by the agglomerative methods only. The default, eq. (11), is also
  /// kanon_cli's and kanond's `4`: ReadRunRequest takes its defaults here.
  DistanceFunction distance = DistanceFunction::kRatio;
  /// Per-attribute weights for the information-loss measure (empty = uniform,
  /// the default). With weights, every pipeline prices records by the
  /// weighted average Σ_j w_j·cost_j / Σw instead of (1/r)·Σ_j cost_j: the
  /// run uses the reweighted loss of PrecomputedLoss::WithAttributeWeights,
  /// and no pipeline knows weights exist. Requires one finite weight >= 0
  /// per attribute, not all zero, with Σw and r/Σw finite; anything else is
  /// InvalidArgument. The reported AnonymizationResult::loss stays Π under
  /// the ORIGINAL (uniform) measure, so runs with different weights are
  /// comparable. CLI: --attr-weights.
  std::vector<double> attr_weights;
  /// Worker threads for the O(n²·r) scans of the agglomerative, (k,k), and
  /// full-domain pipelines (the forest baseline stays single-threaded).
  /// <= 0 resolves to the hardware concurrency; 1 (the default) runs
  /// single-threaded. Results are byte-identical at every thread count
  /// (see docs/parallelism.md).
  int num_threads = 1;
  /// Optional execution controls (deadline, cancellation, step budget,
  /// progress observer). Not owned; must outlive the Anonymize() call. When
  /// the context stops the run, the pipeline finalizes a degraded — but
  /// still valid — table instead of aborting; the outcome is reported in
  /// AnonymizationResult. See docs/robustness.md.
  RunContext* run_context = nullptr;
  /// Optional telemetry sinks (docs/observability.md). Not owned; must
  /// outlive the Anonymize() call. With a tracer, every engine phase and
  /// parallel sweep records a span (export via WriteChromeTrace); with a
  /// metrics registry, the run publishes the engine.* / run.* catalog and
  /// the cluster-size and merge-cost histograms. Null (the default) keeps
  /// every instrumentation point a no-op.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

struct AnonymizationResult {
  GeneralizedTable table;
  /// Π(D, g(D)) under the loss measure the pipeline optimized.
  double loss = 0.0;
  double elapsed_seconds = 0.0;
  /// True when the run was cut short (deadline, cancellation, or step
  /// budget) and a degradation fallback produced the table. The table still
  /// satisfies the promised anonymity notion — it is just lossier.
  bool degraded = false;
  /// Why the run wound down early (kNone when it ran to completion).
  StopReason stop_reason = StopReason::kNone;
  /// Cooperative checkpoints passed (merge/expansion iterations).
  size_t iterations_completed = 0;
  /// Records coarsened beyond plan by the fallback (pooled or suppressed).
  size_t records_suppressed = 0;
  /// First stage that had to degrade ("" when the run completed), e.g.
  /// "agglomerative/merge".
  std::string degraded_stage;
  /// Engine telemetry (merges, rescans, closure-cache hit rate,
  /// parallel-sweep chunks; heap_rebuilds is always 0, as no engine keeps a
  /// heap). Deterministic at every thread count; surfaced by
  /// `kanon_cli --stats-json`.
  EngineCounters counters;
};

/// Runs the configured pipeline on `dataset`, optimizing `loss`.
/// This is the recommended entry point for library users; the individual
/// algorithms remain available in the algo/ headers.
Result<AnonymizationResult> Anonymize(const Dataset& dataset,
                                      const PrecomputedLoss& loss,
                                      const AnonymizerConfig& config);

/// One field of a run request: its kanond submit param, its kanon_cli flag
/// and the kind of value it holds.
struct RunField {
  enum class Kind { kCount, kName, kNumbers };
  const char* param;  // e.g. "attr_weights"
  const char* flag;   // e.g. "attr-weights"
  Kind kind;
};

/// A field's value as its source holds it: std::monostate when the source
/// does not hold the field, else the alternative for the field's Kind.
using RunFieldValue = std::variant<std::monostate, int64_t, std::string,
                                   std::vector<double>>;

/// Gives a field's value from a request's source; an error when the source
/// holds a value of another kind.
using RunFieldLookup = std::function<Result<RunFieldValue>(const RunField&)>;

/// What a run request asks for. `config` holds k, method, distance and
/// attr_weights; the caller fills the rest. A budget of 0 is none.
struct RunRequest {
  AnonymizerConfig config;
  std::unique_ptr<LossMeasure> measure;  // Never null.
  int64_t timeout_ms = 0;
  int64_t max_steps = 0;
};

/// k, method, distance, measure, attr_weights, timeout_ms and max_steps.
std::span<const RunField> RunFields();

/// Reads a run request through `lookup`. An absent field keeps
/// AnonymizerConfig{}'s default; the measure defaults to EM and the budgets
/// to none. An unknown name, k < 1 or a negative budget is InvalidArgument
/// naming the field. Anonymize checks attr_weights against the arity.
Result<RunRequest> ReadRunRequest(const RunFieldLookup& lookup);

/// `field` as kanon_cli's flags spell it: --k=5, --attr-weights=2,1. A bad
/// count or list is InvalidArgument naming the flag.
Result<RunFieldValue> RunFieldFromFlags(const FlagParser& flags,
                                        const RunField& field);

}  // namespace kanon

#endif  // KANON_ALGO_ANONYMIZER_H_
