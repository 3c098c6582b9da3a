#include "kanon/check/properties.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "kanon/algo/brute_force.h"
#include "kanon/algo/clustering.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/run_context.h"
#include "kanon/common/text.h"
#include "kanon/shard/driver.h"

namespace kanon {
namespace check {

PropertyResult Pass() { return PropertyResult{}; }

PropertyResult Fail(std::string kind, std::string message) {
  PropertyResult result;
  result.passed = false;
  result.kind = std::move(kind);
  result.message = std::move(message);
  return result;
}

namespace {

// Numerical slack for loss comparisons: greedy and brute-force sums visit
// terms in different orders.
constexpr double kLossSlack = 1e-9;

// How a pipeline run on a (possibly degenerate) instance ended.
struct PipelineOutcome {
  bool ran = false;       // `result` holds a finished run.
  bool rejected = false;  // Clean rejection of an infeasible instance.
  Status error;           // Set when neither: an unexpected failure.
  std::optional<AnonymizationResult> result;
};

// The configuration of one trial run of `method`, plain or sharded.
AnonymizerConfig TrialRunConfig(const TrialData& data,
                                AnonymizationMethod method, int num_threads,
                                RunContext* ctx) {
  AnonymizerConfig config;
  config.k = data.config.k;
  config.method = method;
  config.distance = data.config.distance;
  config.num_threads = num_threads;
  config.run_context = ctx;
  return config;
}

PipelineOutcome RunPipeline(const TrialData& data, AnonymizationMethod method,
                            int num_threads, RunContext* ctx) {
  PipelineOutcome outcome;
  Result<std::unique_ptr<LossMeasure>> measure =
      MakeMeasure(data.config.measure);
  if (!measure.ok()) {
    outcome.error = measure.status();
    return outcome;
  }
  const PrecomputedLoss loss(data.scheme, data.dataset, *measure.value(), 1);
  Result<AnonymizationResult> result = Anonymize(
      data.dataset, loss, TrialRunConfig(data, method, num_threads, ctx));
  if (result.ok()) {
    outcome.ran = true;
    outcome.result = std::move(result).value();
    return outcome;
  }
  // k > n has no k-anonymous generalization of n published records; the
  // pipelines must reject it cleanly. Anything else is a bug.
  if (result.status().code() == StatusCode::kInvalidArgument &&
      data.config.k > data.num_rows()) {
    outcome.rejected = true;
    return outcome;
  }
  outcome.error = result.status();
  return outcome;
}

std::string ErrorKind(const char* what, const Status& status,
                      AnonymizationMethod method) {
  return std::string(what) + ":" + StatusCodeName(status.code()) + ":" +
         MethodShortName(method);
}

// The trial's deterministic substream for one property-specific purpose.
Rng PropertyRng(const TrialData& data, std::string_view label) {
  return Rng(data.config.seed)
      .Fork(static_cast<uint64_t>(data.config.trial_index))
      .Fork(label);
}

// First configured method that finishes on this instance, with its result.
// Returns false when every method cleanly rejects (k > n shapes); a hard
// error is reported through `failure`.
bool FirstFinishedRun(const TrialData& data, AnonymizationMethod* method,
                      std::optional<AnonymizationResult>* result,
                      PropertyResult* failure) {
  for (AnonymizationMethod candidate : data.config.methods) {
    PipelineOutcome outcome = RunPipeline(data, candidate, 1, nullptr);
    if (outcome.rejected) continue;
    if (!outcome.ran) {
      *failure = Fail(ErrorKind("pipeline-error", outcome.error, candidate),
                      outcome.error.ToString());
      return false;
    }
    *method = candidate;
    *result = std::move(outcome.result);
    return true;
  }
  return false;  // Vacuous: nothing to check on this shape.
}

// Coarsens ~n/4 rows (at least one) of `table` to R* — a generalization of
// a generalization, the converter direction of Section IV's monotonicity.
void SuppressRandomRows(const TrialData& data, std::string_view label,
                        GeneralizedTable* table) {
  Rng rng = PropertyRng(data, label);
  const size_t n = table->num_rows();
  if (n == 0) return;
  const size_t count = std::max<size_t>(1, n / 4);
  const GeneralizedRecord star = data.scheme->Suppressed();
  for (size_t j = 0; j < count; ++j) {
    table->SetRecord(static_cast<size_t>(rng.NextBounded(n)), star);
  }
}

bool CountersEqual(const EngineCounters& a, const EngineCounters& b) {
  return a.merges == b.merges && a.rescans == b.rescans &&
         a.heap_rebuilds == b.heap_rebuilds &&
         a.closure_hits == b.closure_hits &&
         a.closure_misses == b.closure_misses &&
         a.upgrade_steps == b.upgrade_steps &&
         a.parallel_chunks == b.parallel_chunks;
}

// --- Properties ----------------------------------------------------------

// Every pipeline's output satisfies the notion it promises, decided by the
// independent anonymity/verify module (Definitions 4.1, 4.4, 4.6).
PropertyResult PipelineVerifies(const TrialData& data) {
  for (AnonymizationMethod method : data.config.methods) {
    PipelineOutcome outcome = RunPipeline(data, method, 1, nullptr);
    if (outcome.rejected) continue;
    if (!outcome.ran) {
      return Fail(ErrorKind("pipeline-error", outcome.error, method),
                  outcome.error.ToString());
    }
    const GeneralizedTable& table = outcome.result->table;
    if (table.num_rows() != data.num_rows()) {
      return Fail(std::string("shape-mismatch:") + MethodShortName(method),
                  "published " + std::to_string(table.num_rows()) +
                      " records for " + std::to_string(data.num_rows()) +
                      " originals");
    }
    Result<NotionWitness> witness = WitnessNotion(
        PromisedNotion(method), data.dataset, table, data.config.k);
    if (!witness.ok()) {
      return Fail(ErrorKind("verify-error", witness.status(), method),
                  witness.status().ToString());
    }
    if (!witness->satisfied) {
      return Fail(std::string("notion-violated:") + MethodShortName(method),
                  witness->ToString(data.config.k));
    }
  }
  return Pass();
}

// The Section IV implication lattice on real outputs: g(D) generalizes D
// row-wise (Definition 3.2), k-anonymity implies (k,k), (k,k) is exactly
// (1,k) ∧ (k,1), global (1,k) implies (1,k), and matches are a subset of
// consistent neighbors (Proposition 4.5 / Definition 4.6).
PropertyResult ImplicationLattice(const TrialData& data) {
  for (AnonymizationMethod method : data.config.methods) {
    PipelineOutcome outcome = RunPipeline(data, method, 1, nullptr);
    if (outcome.rejected) continue;
    if (!outcome.ran) {
      return Fail(ErrorKind("pipeline-error", outcome.error, method),
                  outcome.error.ToString());
    }
    const GeneralizedTable& table = outcome.result->table;
    for (size_t i = 0; i < data.num_rows(); ++i) {
      if (!table.ConsistentPair(data.dataset, i, i)) {
        return Fail(std::string("row-consistency:") + MethodShortName(method),
                    "row " + std::to_string(i) +
                        " is not consistent with its own generalization");
      }
    }
    Result<AnonymityReport> report =
        AnalyzeAnonymity(data.dataset, table, data.config.k);
    if (!report.ok()) {
      return Fail(ErrorKind("verify-error", report.status(), method),
                  report.status().ToString());
    }
    const std::string suffix = std::string(":") + MethodShortName(method);
    if (report->kk != (report->one_k && report->k_one)) {
      return Fail("lattice:kk-conjunction" + suffix,
                  "(k,k) must equal (1,k) AND (k,1)");
    }
    if (report->k_anonymous && !report->kk) {
      return Fail("lattice:kanon-implies-kk" + suffix,
                  "k-anonymous generalization is not (k,k)-anonymous");
    }
    if (report->global_one_k && !report->one_k) {
      return Fail("lattice:global-implies-1k" + suffix,
                  "global (1,k) holds but plain (1,k) does not");
    }
    if (report->min_matches > report->min_left_degree) {
      return Fail("lattice:matches-bound" + suffix,
                  "min matches " + std::to_string(report->min_matches) +
                      " exceeds min consistency degree " +
                      std::to_string(report->min_left_degree));
    }
  }
  return Pass();
}

// Coarsening is a converter that may only add protection: further
// generalizing published records never decreases any consistency degree or
// match count (the monotone direction of Definition 3.3; the paper's
// notion converters rely on exactly this).
PropertyResult CoarseningMonotone(const TrialData& data) {
  AnonymizationMethod method = AnonymizationMethod::kAgglomerative;
  std::optional<AnonymizationResult> base;
  PropertyResult failure;
  if (!FirstFinishedRun(data, &method, &base, &failure)) return failure;

  Result<AnonymityReport> before =
      AnalyzeAnonymity(data.dataset, base->table, data.config.k);
  if (!before.ok()) {
    return Fail(ErrorKind("verify-error", before.status(), method),
                before.status().ToString());
  }
  GeneralizedTable coarsened = base->table;
  SuppressRandomRows(data, "coarsen", &coarsened);
  Result<AnonymityReport> after =
      AnalyzeAnonymity(data.dataset, coarsened, data.config.k);
  if (!after.ok()) {
    return Fail(ErrorKind("verify-error", after.status(), method),
                after.status().ToString());
  }
  if (after->min_left_degree < before->min_left_degree) {
    return Fail("coarsen:left-degree",
                "min (1,k) degree fell from " +
                    std::to_string(before->min_left_degree) + " to " +
                    std::to_string(after->min_left_degree));
  }
  if (after->min_right_degree < before->min_right_degree) {
    return Fail("coarsen:right-degree",
                "min (k,1) degree fell from " +
                    std::to_string(before->min_right_degree) + " to " +
                    std::to_string(after->min_right_degree));
  }
  if (after->min_matches < before->min_matches) {
    return Fail("coarsen:matches",
                "min match count fell from " +
                    std::to_string(before->min_matches) + " to " +
                    std::to_string(after->min_matches));
  }
  return Pass();
}

// Trims the trial to a brute-force-sized instance: first min(n, 7) rows,
// k clamped to min(k, 3, rows).
TrialData TinyInstance(const TrialData& data) {
  TrialData tiny = data;
  const size_t rows = std::min<size_t>(data.num_rows(), 7);
  tiny.dataset = data.dataset.Head(rows);
  tiny.config.k = std::min<size_t>({data.config.k, rows, 3});
  return tiny;
}

// The greedy clustering pipelines never beat the exhaustive optimum
// (eq. (7), Section V-A): Π_greedy >= Π* on instances small enough to
// enumerate, under the same measure.
PropertyResult BruteForceBound(const TrialData& data) {
  const TrialData tiny = TinyInstance(data);
  if (tiny.config.k < 1 || tiny.num_rows() == 0) return Pass();

  Result<std::unique_ptr<LossMeasure>> measure =
      MakeMeasure(tiny.config.measure);
  if (!measure.ok()) {
    return Fail("harness-error:measure", measure.status().ToString());
  }
  const PrecomputedLoss loss(tiny.scheme, tiny.dataset, *measure.value(), 1);
  Result<Clustering> optimal =
      OptimalKAnonymityBruteForce(tiny.dataset, loss, tiny.config.k);
  if (!optimal.ok()) {
    return Fail("bruteforce-error:" +
                    std::string(StatusCodeName(optimal.status().code())),
                optimal.status().ToString());
  }
  if (!optimal->IsPartitionOf(tiny.num_rows()) ||
      optimal->min_cluster_size() < tiny.config.k) {
    return Fail("bruteforce:invalid-partition",
                "brute force returned an infeasible clustering");
  }
  const GeneralizedTable optimal_table =
      TableFromClustering(tiny.scheme, tiny.dataset, *optimal);
  Result<NotionWitness> witness =
      WitnessKAnonymity(optimal_table, tiny.config.k);
  if (!witness.ok() || !witness->satisfied) {
    return Fail("bruteforce:not-k-anonymous",
                witness.ok() ? witness->ToString(tiny.config.k)
                             : witness.status().ToString());
  }
  const double optimum = ClusteringLoss(tiny.dataset, loss, *optimal);

  const AnonymizationMethod greedy[] = {
      AnonymizationMethod::kAgglomerative,
      AnonymizationMethod::kModifiedAgglomerative,
      AnonymizationMethod::kForest,
      AnonymizationMethod::kFullDomain,
  };
  for (AnonymizationMethod method : greedy) {
    if (std::find(data.config.methods.begin(), data.config.methods.end(),
                  method) == data.config.methods.end()) {
      continue;
    }
    PipelineOutcome outcome = RunPipeline(tiny, method, 1, nullptr);
    if (outcome.rejected) continue;
    if (!outcome.ran) {
      return Fail(ErrorKind("pipeline-error", outcome.error, method),
                  outcome.error.ToString());
    }
    if (outcome.result->loss + kLossSlack < optimum) {
      return Fail(std::string("bruteforce:beaten:") + MethodShortName(method),
                  MethodShortName(method) + std::string(" loss ") +
                      FormatDouble(outcome.result->loss, 12) +
                      " undercuts the exhaustive optimum " +
                      FormatDouble(optimum, 12));
    }
  }
  return Pass();
}

// The optimal loss is monotone non-decreasing in k: every partition with
// parts >= k+1 is feasible at k too, so Π*(k) <= Π*(k+1) (eq. (7)).
PropertyResult OptimalLossMonotoneK(const TrialData& data) {
  const TrialData tiny = TinyInstance(data);
  if (tiny.num_rows() == 0) return Pass();
  Result<std::unique_ptr<LossMeasure>> measure =
      MakeMeasure(tiny.config.measure);
  if (!measure.ok()) {
    return Fail("harness-error:measure", measure.status().ToString());
  }
  const PrecomputedLoss loss(tiny.scheme, tiny.dataset, *measure.value(), 1);
  double previous = -1.0;
  const size_t max_k = std::min<size_t>(tiny.num_rows(), 3);
  for (size_t k = 1; k <= max_k; ++k) {
    Result<Clustering> optimal =
        OptimalKAnonymityBruteForce(tiny.dataset, loss, k);
    if (!optimal.ok()) {
      return Fail("bruteforce-error:" +
                      std::string(StatusCodeName(optimal.status().code())),
                  optimal.status().ToString());
    }
    const double value = ClusteringLoss(tiny.dataset, loss, *optimal);
    if (value + kLossSlack < previous) {
      return Fail("bruteforce:monotone-k",
                  "optimal loss fell from " + FormatDouble(previous, 12) +
                      " at k=" + std::to_string(k - 1) + " to " +
                      FormatDouble(value, 12) + " at k=" + std::to_string(k));
    }
    previous = value;
  }
  return Pass();
}

// Degradation accounting balances: the degraded flag mirrors the stop
// reason, fallback suppression is bounded by n and zero on complete runs,
// the iteration count respects the budget, and a degraded table still
// verifies its promised notion (the docs/robustness.md contract).
PropertyResult SuppressionAccounting(const TrialData& data) {
  AnonymizationMethod method = data.config.methods.empty()
                                   ? AnonymizationMethod::kAgglomerative
                                   : data.config.methods.front();
  Rng rng = PropertyRng(data, "budget");
  const size_t budget =
      1 + static_cast<size_t>(rng.NextBounded(2 * data.num_rows() + 4));

  RunContext ctx;
  ctx.set_step_budget(budget);
  PipelineOutcome run = RunPipeline(data, method, 1, &ctx);
  if (run.rejected) return Pass();
  if (!run.ran) {
    return Fail(ErrorKind("pipeline-error", run.error, method),
                run.error.ToString());
  }
  const AnonymizationResult& result = *run.result;
  const std::string suffix = std::string(":") + MethodShortName(method);
  if (result.degraded != (result.stop_reason != StopReason::kNone)) {
    return Fail("accounting:degraded-flag" + suffix,
                "degraded flag disagrees with stop reason " +
                    std::string(StopReasonName(result.stop_reason)));
  }
  if (!result.degraded && result.records_suppressed != 0) {
    return Fail("accounting:suppressed-on-complete-run" + suffix,
                std::to_string(result.records_suppressed) +
                    " records charged to a fallback that never ran");
  }
  if (result.records_suppressed > data.num_rows()) {
    return Fail("accounting:suppressed-bound" + suffix,
                std::to_string(result.records_suppressed) +
                    " fallback records exceed n = " +
                    std::to_string(data.num_rows()));
  }
  if (result.iterations_completed > budget + 1) {
    return Fail("accounting:iterations-bound" + suffix,
                std::to_string(result.iterations_completed) +
                    " iterations exceed step budget " +
                    std::to_string(budget));
  }
  if (result.table.num_rows() != data.num_rows()) {
    return Fail("accounting:shape" + suffix,
                "degraded run changed the row count");
  }
  Result<NotionWitness> witness = WitnessNotion(
      PromisedNotion(method), data.dataset, result.table, data.config.k);
  if (!witness.ok()) {
    return Fail(ErrorKind("verify-error", witness.status(), method),
                witness.status().ToString());
  }
  if (!witness->satisfied) {
    return Fail("accounting:degraded-invalid" + suffix,
                "budget " + std::to_string(budget) +
                    " run violates its notion: " +
                    witness->ToString(data.config.k));
  }
  return Pass();
}

// Byte-identical output at --threads 1/2/4, including the loss bits and
// the engine counters (the docs/parallelism.md determinism contract).
PropertyResult ThreadsDeterministic(const TrialData& data) {
  for (AnonymizationMethod method : data.config.methods) {
    PipelineOutcome reference = RunPipeline(data, method, 1, nullptr);
    if (!reference.ran && !reference.rejected) {
      return Fail(ErrorKind("pipeline-error", reference.error, method),
                  reference.error.ToString());
    }
    for (int threads : {2, 4}) {
      PipelineOutcome other = RunPipeline(data, method, threads, nullptr);
      const std::string suffix =
          std::string(":") + MethodShortName(method) + ":threads-" +
          std::to_string(threads);
      if (other.ran != reference.ran) {
        return Fail("threads-diverged-outcome" + suffix,
                    "run classification depends on the thread count");
      }
      if (!reference.ran) continue;
      if (!(other.result->table == reference.result->table)) {
        return Fail("threads-diverged-table" + suffix,
                    "published table differs from the single-threaded run");
      }
      if (other.result->loss != reference.result->loss) {
        return Fail("threads-diverged-loss" + suffix,
                    FormatDouble(other.result->loss, 17) + " vs " +
                        FormatDouble(reference.result->loss, 17));
      }
      if (!CountersEqual(other.result->counters, reference.result->counters)) {
        return Fail("threads-diverged-counters" + suffix,
                    "engine counters differ from the single-threaded run");
      }
    }
  }
  return Pass();
}

// Identical output across repeated runs of the same configuration — any
// divergence means hidden global state or scheduling leaking into results.
PropertyResult SeedDeterministic(const TrialData& data) {
  AnonymizationMethod method = AnonymizationMethod::kAgglomerative;
  std::optional<AnonymizationResult> first;
  PropertyResult failure;
  if (!FirstFinishedRun(data, &method, &first, &failure)) return failure;
  PipelineOutcome again = RunPipeline(data, method, 1, nullptr);
  if (!again.ran) {
    return Fail(ErrorKind("pipeline-error", again.error, method),
                again.error.ToString());
  }
  const std::string suffix = std::string(":") + MethodShortName(method);
  if (!(again.result->table == first->table)) {
    return Fail("rerun-diverged-table" + suffix,
                "repeated run published a different table");
  }
  if (again.result->loss != first->loss) {
    return Fail("rerun-diverged-loss" + suffix,
                FormatDouble(again.result->loss, 17) + " vs " +
                    FormatDouble(first->loss, 17));
  }
  if (!CountersEqual(again.result->counters, first->counters)) {
    return Fail("rerun-diverged-counters" + suffix,
                "engine counters differ between identical runs");
  }
  return Pass();
}

// The witness API agrees with the boolean verifiers, and every violation
// witness is real: recounting the named row's degree/group reproduces the
// reported shortfall.
PropertyResult WitnessConsistent(const TrialData& data) {
  AnonymizationMethod method = AnonymizationMethod::kAgglomerative;
  std::optional<AnonymizationResult> base;
  PropertyResult failure;
  if (!FirstFinishedRun(data, &method, &base, &failure)) return failure;

  GeneralizedTable coarsened = base->table;
  SuppressRandomRows(data, "witness-coarsen", &coarsened);

  const size_t k = data.config.k;
  const Dataset& d = data.dataset;
  for (const GeneralizedTable* table : {&base->table, &coarsened}) {
    for (AnonymityNotion notion :
         {AnonymityNotion::kKAnonymity, AnonymityNotion::kOneK,
          AnonymityNotion::kKOne, AnonymityNotion::kKK,
          AnonymityNotion::kGlobalOneK}) {
      Result<NotionWitness> witness = WitnessNotion(notion, d, *table, k);
      Result<bool> boolean = SatisfiesNotion(notion, d, *table, k);
      const std::string suffix =
          std::string(":") + AnonymityNotionName(notion);
      if (witness.ok() != boolean.ok()) {
        return Fail("witness:status-mismatch" + suffix,
                    "witness and boolean verifiers disagree on validity");
      }
      if (!witness.ok()) continue;
      if (witness->satisfied != boolean.value()) {
        return Fail("witness:verdict-mismatch" + suffix,
                    "witness and boolean verifiers disagree");
      }
      if (witness->satisfied) continue;
      const NotionWitness& w = witness.value();
      if (w.observed >= k) {
        return Fail("witness:observed-not-short" + suffix,
                    w.ToString(k) + " — observed count is not below k");
      }
      // Recount the witness row directly against Definition 3.3.
      size_t recount = 0;
      bool recountable = true;
      switch (notion) {
        case AnonymityNotion::kKAnonymity: {
          const GeneralizedRecord record = table->record(w.row);
          for (size_t t = 0; t < table->num_rows(); ++t) {
            if (table->record(t) == record) ++recount;
          }
          break;
        }
        case AnonymityNotion::kOneK:
          for (size_t t = 0; t < table->num_rows(); ++t) {
            if (table->ConsistentPair(d, w.row, t)) ++recount;
          }
          break;
        case AnonymityNotion::kKOne:
          for (size_t i = 0; i < d.num_rows(); ++i) {
            if (table->ConsistentPair(d, i, w.row)) ++recount;
          }
          break;
        case AnonymityNotion::kKK:
          if (w.row_in_table) {
            for (size_t i = 0; i < d.num_rows(); ++i) {
              if (table->ConsistentPair(d, i, w.row)) ++recount;
            }
          } else {
            for (size_t t = 0; t < table->num_rows(); ++t) {
              if (table->ConsistentPair(d, w.row, t)) ++recount;
            }
          }
          break;
        case AnonymityNotion::kGlobalOneK:
          // Matches need the full matching machinery; bounds only.
          recountable = false;
          break;
      }
      if (recountable && recount != w.observed) {
        return Fail("witness:recount-mismatch" + suffix,
                    "witness reports " + std::to_string(w.observed) +
                        " but direct recount finds " +
                        std::to_string(recount));
      }
      if (w.row >= (w.row_in_table ? table->num_rows() : d.num_rows())) {
        return Fail("witness:row-out-of-range" + suffix, w.ToString(k));
      }
    }
  }
  return Pass();
}

// First configured method whose per-shard outputs compose into a global
// k-guarantee: one that promises k-anonymity (see shard/driver.h). Nullopt
// when the trial exercises only relational notions — those properties are
// vacuous then.
std::optional<AnonymizationMethod> FirstComposableMethod(
    const TrialData& data) {
  for (AnonymizationMethod method : data.config.methods) {
    if (PromisedNotion(method) == AnonymityNotion::kKAnonymity) return method;
  }
  return std::nullopt;
}

// A sharded run of one trial in a private scratch work dir. mkdtemp makes
// it unique per run, not per trial: campaign workers, and test binaries
// sharing a seed under ctest -j, run the same trial concurrently, and one
// run's cleanup must not delete another's shard journal.
struct ShardedOutcome {
  bool ran = false;
  bool rejected = false;  // Clean rejection (k > n shapes).
  Status error;
  std::optional<shard::ShardedResult> result;
};

ShardedOutcome RunSharded(const TrialData& data, AnonymizationMethod method,
                          size_t num_shards, const char* label) {
  ShardedOutcome outcome;
  Result<std::unique_ptr<LossMeasure>> measure =
      MakeMeasure(data.config.measure);
  if (!measure.ok()) {
    outcome.error = measure.status();
    return outcome;
  }
  shard::ShardOptions options;
  options.num_shards = num_shards;
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() /
                     ("kanon_check_" + std::string(label) + "_XXXXXX"))
                        .string();
  if (::mkdtemp(dir.data()) == nullptr) {
    outcome.error = Status::IOError("cannot create a scratch directory '" +
                                    dir + "': " + std::strerror(errno));
    return outcome;
  }
  options.work_dir = dir;
  Result<shard::ShardedResult> result = shard::ShardedAnonymize(
      data.dataset, data.scheme, *measure.value(),
      TrialRunConfig(data, method, 1, nullptr), options);
  std::error_code ec;
  fs::remove_all(dir, ec);  // Scratch only; best-effort cleanup.
  if (result.ok()) {
    outcome.ran = true;
    outcome.result = std::move(result).value();
    return outcome;
  }
  if (result.status().code() == StatusCode::kInvalidArgument &&
      data.config.k > data.num_rows()) {
    outcome.rejected = true;
    return outcome;
  }
  outcome.error = result.status();
  return outcome;
}

// Sharded composition (Definition 4.1): anonymizing hash-partitioned
// shards independently and merging them — including the cross-shard
// boundary repair — publishes a globally k-anonymous table of the same
// shape, with every row still generalizing its original.
PropertyResult ShardedComposition(const TrialData& data) {
  const std::optional<AnonymizationMethod> method =
      FirstComposableMethod(data);
  if (!method.has_value()) return Pass();
  const std::string suffix = std::string(":") + MethodShortName(*method);
  Rng rng = PropertyRng(data, "shards");
  const size_t num_shards = 2 + static_cast<size_t>(rng.NextBounded(4));
  ShardedOutcome outcome =
      RunSharded(data, *method, num_shards, "composition");
  if (outcome.rejected) return Pass();
  if (!outcome.ran) {
    return Fail(ErrorKind("shard-error", outcome.error, *method),
                outcome.error.ToString());
  }
  const shard::ShardedResult& sharded = *outcome.result;
  if (sharded.table.num_rows() != data.num_rows()) {
    return Fail("shard:shape" + suffix,
                "merged table has " +
                    std::to_string(sharded.table.num_rows()) +
                    " rows for " + std::to_string(data.num_rows()) +
                    " originals");
  }
  for (size_t i = 0; i < data.num_rows(); ++i) {
    if (!sharded.table.ConsistentPair(data.dataset, i, i)) {
      return Fail("shard:row-consistency" + suffix,
                  "row " + std::to_string(i) +
                      " no longer generalizes its original after the "
                      "shard merge");
    }
  }
  Result<NotionWitness> witness =
      WitnessKAnonymity(sharded.table, data.config.k);
  if (!witness.ok()) {
    return Fail(ErrorKind("verify-error", witness.status(), *method),
                witness.status().ToString());
  }
  if (!witness->satisfied) {
    return Fail("shard:not-k-anonymous" + suffix,
                std::to_string(num_shards) + " shards: " +
                    witness->ToString(data.config.k));
  }
  return Pass();
}

// Sharded suppressed-row accounting is exact at EVERY shard count: the
// reported records_suppressed is a recount of fully suppressed rows on the
// published table, shard-level suppression never loses rows, and a clean
// (non-degraded) run reports no shard casualties.
PropertyResult ShardAccountingInvariant(const TrialData& data) {
  const std::optional<AnonymizationMethod> method =
      FirstComposableMethod(data);
  if (!method.has_value()) return Pass();
  const std::string suffix = std::string(":") + MethodShortName(*method);
  const GeneralizedRecord star = data.scheme->Suppressed();
  for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedOutcome outcome =
        RunSharded(data, *method, num_shards, "accounting");
    if (outcome.rejected) return Pass();
    if (!outcome.ran) {
      return Fail(ErrorKind("shard-error", outcome.error, *method),
                  outcome.error.ToString());
    }
    const shard::ShardedResult& sharded = *outcome.result;
    const std::string at = suffix + ":shards-" + std::to_string(num_shards);
    size_t recount = 0;
    for (size_t t = 0; t < sharded.table.num_rows(); ++t) {
      if (sharded.table.record(t) == star) ++recount;
    }
    if (recount != sharded.records_suppressed) {
      return Fail("shard-accounting:recount" + at,
                  "reported " + std::to_string(sharded.records_suppressed) +
                      " suppressed records, table carries " +
                      std::to_string(recount));
    }
    if (!sharded.degraded &&
        (sharded.shards_suppressed != 0 || sharded.shard_retries != 0 ||
         sharded.boundary_repaired != 0)) {
      return Fail("shard-accounting:clean-run" + at,
                  "non-degraded run reports shard casualties");
    }
    uint64_t shard_rows = 0;
    for (const shard::ShardOutcome& s : sharded.shards) shard_rows += s.rows;
    if (shard_rows != data.num_rows() ||
        sharded.rows != data.num_rows()) {
      return Fail("shard-accounting:rows" + at,
                  "per-shard row counts do not add up to n");
    }
  }
  return Pass();
}

}  // namespace

const std::vector<Property>& PropertyCatalog() {
  static const std::vector<Property> catalog = {
      {"pipeline-verifies", "Definitions 4.1, 4.4, 4.6",
       "every pipeline's output satisfies its promised anonymity notion",
       &PipelineVerifies},
      {"implication-lattice", "Proposition 4.5; Definition 3.2",
       "k-anon => (k,k); (k,k) = (1,k) AND (k,1); global (1,k) => (1,k); "
       "matches are consistent neighbors",
       &ImplicationLattice},
      {"coarsening-monotone", "Definition 3.3 (monotone converters)",
       "further generalizing published records never lowers a consistency "
       "degree or match count",
       &CoarseningMonotone},
      {"brute-force-bound", "eq. (7), Section V-A",
       "greedy clustering loss >= exhaustive optimum on tiny instances",
       &BruteForceBound},
      {"optimal-loss-monotone-k", "eq. (7): feasible partitions nest in k",
       "the exhaustive optimal loss is non-decreasing in k",
       &OptimalLossMonotoneK},
      {"suppression-accounting", "docs/robustness.md degradation contract",
       "degraded flag mirrors the stop reason, fallback suppression is "
       "bounded and zero on complete runs, degraded output still verifies",
       &SuppressionAccounting},
      {"threads-deterministic", "docs/parallelism.md determinism contract",
       "tables, losses, and engine counters are identical at threads 1/2/4",
       &ThreadsDeterministic},
      {"seed-deterministic", "determinism contract (repeated runs)",
       "repeated identical runs publish identical results",
       &SeedDeterministic},
      {"witness-consistent", "Definitions 4.1/4.4/4.6 (witness self-check)",
       "witness verifiers agree with the boolean verifiers and name real "
       "violations",
       &WitnessConsistent},
      {"sharded-composition", "Definition 4.1 (groups grow under union)",
       "per-shard anonymization + merge + boundary repair publishes a "
       "globally k-anonymous table of the original shape",
       &ShardedComposition},
      {"shard-accounting", "docs/sharding.md accounting contract",
       "suppressed-row accounting is an exact recount of the published "
       "table at every shard count; clean runs report no shard casualties",
       &ShardAccountingInvariant},
  };
  return catalog;
}

const Property* FindProperty(std::string_view name) {
  for (const Property& property : PropertyCatalog()) {
    if (name == property.name) return &property;
  }
  return nullptr;
}

Result<std::vector<const Property*>> SelectProperties(
    const std::string& comma_list) {
  std::vector<const Property*> selected;
  if (comma_list.empty() || comma_list == "all") {
    for (const Property& property : PropertyCatalog()) {
      selected.push_back(&property);
    }
    return selected;
  }
  for (const std::string& raw : Split(comma_list, ',')) {
    const std::string name(Trim(raw));
    if (name.empty()) continue;
    const Property* property = FindProperty(name);
    if (property == nullptr) {
      return Status::InvalidArgument("unknown property '" + name + "'");
    }
    if (std::find(selected.begin(), selected.end(), property) ==
        selected.end()) {
      selected.push_back(property);
    }
  }
  if (selected.empty()) {
    return Status::InvalidArgument("--props selected no properties");
  }
  return selected;
}

}  // namespace check
}  // namespace kanon
