// Command-line anonymizer: reads a CSV, applies one of the library's
// anonymization pipelines, verifies the promised anonymity notion, and
// writes the generalized table.
//
//   kanon_cli --input=records.csv --k=5
//             [--spec=hierarchies.spec]      # see scheme_spec.h; default:
//                                            # suppression-only everywhere
//             [--method=agglomerative|modified|forest|kk-nn|kk-greedy|global|full-domain]
//             [--measure=EM|LM|TM|SUP]
//             [--distance=1|2|3|4|nc]
//             [--attr-weights=w1,w2,...]     # per-attribute loss weights
//                                            # (AnonymizerConfig::attr_weights,
//                                            # algo/anonymizer.h); one
//                                            # finite weight >= 0 per input
//                                            # attribute, not all zero, with
//                                            # a finite sum and r/sum.
//                                            # Reported loss stays uniform.
//             [--output=anonymized.csv]
//             [--report]                     # print a utility report
//             [--print-spec]                 # dump the effective spec
//             [--timeout-ms=N]               # wall-clock budget; on expiry
//                                            # the run degrades gracefully
//             [--max-steps=N]                # iteration budget, same effect
//             [--threads=N]                  # worker threads for the O(n^2)
//                                            # scans; 0 = all cores; output
//                                            # is identical for every N
//             [--stats-json=PATH]            # write one JSON object with the
//                                            # loss, timing, the engine
//                                            # counters, and the full metrics
//                                            # registry ("-" = stdout)
//             [--trace-json=PATH]            # write a Chrome trace-event
//                                            # JSON of the run's phase spans
//                                            # (open in chrome://tracing or
//                                            # ui.perfetto.dev)
//             [--metrics-json=PATH]          # write the metrics registry as
//                                            # flat JSON ("-" = stdout)
//             [--progress]                   # throttled progress line on
//                                            # stderr while the run advances
//
// Out-of-core sharded mode (docs/sharding.md) — engaged by any of:
//             [--shards=N]                   # hash-partition the input into
//                                            # N shards, anonymize each
//                                            # independently, merge + repair
//             [--memory-budget-mb=N]        # derive the shard count from a
//                                            # per-shard working-set budget
//             [--work-dir=DIR]               # journal directory (spills,
//                                            # checkpoints, manifest);
//                                            # required in sharded mode
//             [--resume[=DIR]]               # continue a killed run from its
//                                            # checkpoints (byte-identical
//                                            # output); =DIR implies
//                                            # --work-dir=DIR
//             [--shard-prefix=N]             # QI-prefix width of the hash
//                                            # partitioner (default 3)
//             [--shard-attempts=N]           # engine attempts per shard
//                                            # before it is suppressed
// Sharded mode streams the CSV (the text table is never resident) and only
// accepts the per-record k-anonymity methods — their per-shard guarantees
// compose into a global one.
//
// SIGINT (Ctrl-C) cancels cooperatively: the pipeline finalizes a valid
// partial result instead of dying. Exit codes:
//   0  success
//   1  failure (I/O, invalid arguments to the pipeline, notion violated)
//   2  usage error
//   3  degraded output (deadline or step budget) that still verifies
//   4  cancelled by SIGINT, with a valid partial table written
#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/common/json_text.h"
#include "kanon/common/parallel.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/generalization/scheme_spec.h"
#include "kanon/loss/utility_report.h"
#include "kanon/shard/driver.h"
#include "kanon/telemetry/progress.h"
#include "kanon/telemetry/trace_export.h"

namespace kanon {
namespace {

// Written once before the handler is installed; Cancel() only stores a
// relaxed atomic bool, so the handler is async-signal-safe.
CancellationToken* g_cancel_token = nullptr;

void HandleSigint(int /*signum*/) {
  if (g_cancel_token != nullptr) g_cancel_token->Cancel();
}

// printf into a string: the epilogue prints the summary lines late.
__attribute__((format(printf, 1, 2))) std::string Printf(const char* format,
                                                         ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(size), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

int UsageError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

// Generalization scheme: from the spec file, or suppression-only.
Result<GeneralizationScheme> LoadScheme(const FlagParser& flags,
                                        const Schema& schema) {
  const std::string spec = flags.GetString("spec", "");
  if (!spec.empty()) return ParseSchemeSpecFile(schema, spec);
  std::fprintf(stderr,
               "no --spec given: every attribute is suppression-only"
               " (coarse; consider writing a spec)\n");
  return GeneralizationScheme::SuppressionOnly(schema);
}

// What both run paths build from the flags before the engine starts: the
// run request (config, loss measure, budgets), the execution controls and
// the telemetry sinks.
struct CliRun {
  RunRequest request;
  RunContext ctx;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<MetricsRegistry> metrics;
  std::string trace_path;
  std::string metrics_path;
  std::string stats_path;
};

// Fills `run` from the flags. Returns 0, or 2 on a usage error.
int SetUpRun(const FlagParser& flags, CliRun* run) {
  Result<RunRequest> request =
      ReadRunRequest([&flags](const RunField& field) {
        return RunFieldFromFlags(flags, field);
      });
  if (!request.ok()) return UsageError(request.status());
  run->request = std::move(request).value();
  AnonymizerConfig& config = run->request.config;
  // 0 (the default) uses every core; the output does not depend on this.
  // No sweep runs more threads than it has chunks, so the clamp is moot.
  config.num_threads = ResolveNumThreads(
      static_cast<int>(std::min<int64_t>(flags.GetInt("threads", 0), INT_MAX)));

  // Execution controls: deadline, step budget, Ctrl-C cancellation.
  auto cancel_token = std::make_shared<CancellationToken>();
  run->ctx.set_cancel_token(cancel_token);
  g_cancel_token = cancel_token.get();
  std::signal(SIGINT, HandleSigint);
  if (run->request.max_steps > 0) {
    run->ctx.set_step_budget(static_cast<size_t>(run->request.max_steps));
  }
  if (run->request.timeout_ms > 0) {
    run->ctx.ArmDeadline(static_cast<double>(run->request.timeout_ms) /
                         1000.0);
  }
  config.run_context = &run->ctx;

  // Telemetry (docs/observability.md): the tracer exists only when a trace
  // was asked for; the metrics registry whenever any JSON output wants it.
  run->trace_path = flags.GetString("trace-json", "");
  run->metrics_path = flags.GetString("metrics-json", "");
  run->stats_path = flags.GetString("stats-json", "");
  if (!run->trace_path.empty()) {
    run->tracer = std::make_unique<Tracer>();
    config.tracer = run->tracer.get();
  }
  if (!run->metrics_path.empty() || !run->stats_path.empty()) {
    run->metrics = std::make_unique<MetricsRegistry>();
    config.metrics = run->metrics.get();
  }
  return 0;
}

// The --stats-json object of either run path: the shared head (method, k,
// measure, loss), the path's own `fields`, then the metrics registry. The
// field order is stable; the cli_stats_json and cli_shard tests pin it.
template <typename Fields>
std::string StatsJson(const CliRun& run, double loss, Fields fields) {
  std::string out = "{\"method\":";
  AppendJsonString(&out, AnonymizationMethodName(run.request.config.method));
  out += ",\"k\":" + std::to_string(run.request.config.k) + ",\"measure\":";
  AppendJsonString(&out, run.request.measure->name());
  out += ",\"loss\":";
  AppendJsonNumber(&out, loss);
  out += ',';
  fields(&out);
  if (run.metrics != nullptr) {
    // The full registry (superset of the engine counters, plus the run.*
    // gauges and histograms), embedded as a sub-object.
    std::string registry =
        run.metrics->ToJson(/*include_nondeterministic=*/true);
    while (!registry.empty() && registry.back() == '\n') registry.pop_back();
    out += ",\"metrics\":" + registry;
  }
  out += "}\n";
  return out;
}

// What a finished run hands to the epilogue. The two run paths differ only
// in the text they print around the shared steps.
struct RunOutcome {
  const GeneralizedTable& table;
  // The verifier's view of the input; k-anonymity reads only the table.
  const Dataset& dataset;
  bool degraded;
  StopReason stop_reason;
  std::string report;  // The --report text, printed before the stats.
  std::string stats_json;
  std::string summary;  // The summary line up to the verdict.
  std::string degraded_note;
};

// The shared epilogue: writes the trace, metrics and stats JSON, verifies
// the table against the notion its method promises, writes the table, and
// maps the outcome to the exit code (0 ok, 1 failure, 3 degraded,
// 4 cancelled).
int FinishRun(const FlagParser& flags, const CliRun& run,
              const RunOutcome& outcome) {
  if (run.tracer != nullptr) {
    if (Status s = WriteChromeTrace(*run.tracer, run.trace_path); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace %s (%zu spans, %zu lanes)\n",
                 run.trace_path.c_str(), run.tracer->total_spans(),
                 run.tracer->num_lanes());
  }
  if (run.metrics != nullptr && !run.metrics_path.empty()) {
    if (Status s = WriteMetricsJson(*run.metrics, run.metrics_path);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    if (run.metrics_path != "-") {
      std::fprintf(stderr, "wrote metrics %s\n", run.metrics_path.c_str());
    }
  }
  std::fputs(outcome.report.c_str(), stderr);
  if (run.stats_path == "-") {
    std::fputs(outcome.stats_json.c_str(), stdout);
  } else if (!run.stats_path.empty()) {
    std::ofstream out(run.stats_path);
    out << outcome.stats_json;
    if (!out) {
      std::fprintf(stderr, "error writing %s\n", run.stats_path.c_str());
      return 1;
    }
  }

  const AnonymityNotion notion = PromisedNotion(run.request.config.method);
  Result<bool> verified = SatisfiesNotion(notion, outcome.dataset,
                                          outcome.table, run.request.config.k);
  if (!verified.ok()) {
    std::fprintf(stderr, "verification failed: %s\n",
                 verified.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s; %s: %s\n", outcome.summary.c_str(),
               AnonymityNotionName(notion),
               verified.value() ? "satisfied" : "VIOLATED");
  if (outcome.degraded) std::fputs(outcome.degraded_note.c_str(), stderr);
  if (!verified.value()) return 1;

  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    if (Status s = WriteGeneralizedCsvFile(outcome.table, output); !s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", output.c_str());
  } else if (Status s = WriteGeneralizedCsv(outcome.table, std::cout);
             !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  if (outcome.degraded) {
    return outcome.stop_reason == StopReason::kCancelled ? 4 : 3;
  }
  return 0;
}

// The out-of-core path: streams the CSV into shard spills, runs the engine
// per shard with checkpoint/resume, merges, repairs, verifies Definition
// 4.1 on the merged table. The full text table is never resident.
int ShardedMain(const FlagParser& flags, const std::string& input) {
  const std::string resume_value = flags.GetString("resume", "");
  const bool resume = flags.Has("resume");
  std::string work_dir = flags.GetString("work-dir", "");
  if (work_dir.empty() && resume && resume_value != "true") {
    work_dir = resume_value;
  }
  if (work_dir.empty()) {
    std::fprintf(stderr,
                 "error: sharded mode needs --work-dir=DIR (or "
                 "--resume=DIR)\n");
    return 2;
  }

  // Streaming schema inference: one pass over the text, no row buffering.
  Result<Schema> schema = InferCsvSchemaFile(input);
  if (!schema.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                 schema.status().ToString().c_str());
    return 1;
  }
  Result<GeneralizationScheme> scheme = LoadScheme(flags, schema.value());
  if (!scheme.ok()) {
    std::fprintf(stderr, "error in scheme: %s\n",
                 scheme.status().ToString().c_str());
    return 1;
  }
  auto scheme_ptr =
      std::make_shared<const GeneralizationScheme>(std::move(scheme).value());

  CliRun run;
  if (const int code = SetUpRun(flags, &run); code != 0) return code;
  if (flags.GetBool("report", false)) {
    std::fprintf(stderr,
                 "note: --report needs the full dataset in memory and is"
                 " skipped in sharded mode\n");
  }

  shard::ShardOptions options;
  options.num_shards = static_cast<size_t>(flags.GetInt("shards", 0));
  options.memory_budget_mb =
      static_cast<size_t>(flags.GetInt("memory-budget-mb", 0));
  options.work_dir = work_dir;
  options.resume = resume;
  options.prefix_attributes =
      static_cast<size_t>(flags.GetInt("shard-prefix", 3));
  options.max_attempts =
      static_cast<size_t>(flags.GetInt("shard-attempts", 3));

  Result<shard::ShardedResult> result = shard::ShardedAnonymizeCsvFile(
      input, scheme_ptr, CsvOptions(), *run.request.measure,
      run.request.config, options);
  if (!result.ok()) {
    std::fprintf(stderr, "sharded anonymization failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const shard::ShardedResult& r = result.value();
  for (size_t s = 0; s < r.shards.size(); ++s) {
    const shard::ShardOutcome& shard = r.shards[s];
    if (shard.error.empty()) continue;
    std::fprintf(stderr, "shard %zu suppressed after %llu attempt(s): %s\n",
                 s, static_cast<unsigned long long>(shard.attempts),
                 shard.error.c_str());
  }
  // Sharded mode accepts only the methods that promise k-anonymity, which
  // the verifier decides on the table alone; the rows stay on disk.
  const Dataset no_rows(schema.value());
  const auto fields = [&](std::string* out) {
    *out += "\"rows\":" + std::to_string(r.rows) + ",";
    *out += r.degraded ? "\"degraded\":true," : "\"degraded\":false,";
    *out += "\"stop_reason\":";
    AppendJsonString(out, StopReasonName(r.stop_reason));
    *out += ",\"records_suppressed\":" +
            std::to_string(r.records_suppressed) + ",";
    *out += "\"shards\":" + std::to_string(r.num_shards) + ",";
    *out += "\"shards_resumed\":" + std::to_string(r.shards_resumed) + ",";
    *out += "\"shards_suppressed\":" + std::to_string(r.shards_suppressed) +
            ",";
    *out += "\"shard_retries\":" + std::to_string(r.shard_retries) + ",";
    *out += "\"boundary_repaired\":" + std::to_string(r.boundary_repaired);
  };
  return FinishRun(
      flags, run,
      RunOutcome{
          .table = r.table,
          .dataset = no_rows,
          .degraded = r.degraded,
          .stop_reason = r.stop_reason,
          .report = {},
          .stats_json = StatsJson(run, r.loss, fields),
          .summary = Printf(
              "sharded %s, k=%zu: %zu rows in %zu shards, loss(%s) = %.4f;"
              " resumed %zu, suppressed %zu, retries %zu, repaired %zu",
              AnonymizationMethodName(run.request.config.method),
              run.request.config.k, r.rows, r.num_shards,
              run.request.measure->name().c_str(), r.loss, r.shards_resumed,
              r.shards_suppressed, r.shard_retries, r.boundary_repaired),
          .degraded_note =
              Printf("run degraded (%s): output is valid but lossier\n",
                     StopReasonName(r.stop_reason)),
      });
}

int RealMain(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) return UsageError(s);
  const std::string input = flags.GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: kanon_cli --input=records.csv --k=5 [--spec=...]"
                 " [--method=...] [--measure=M] [--distance=D]"
                 " [--attr-weights=w1,w2,...]"
                 " [--output=...] [--report] [--print-spec] [--timeout-ms=N]"
                 " [--max-steps=N] [--threads=N] [--stats-json=PATH]"
                 " [--trace-json=PATH] [--metrics-json=PATH] [--progress]"
                 " [--shards=N] [--memory-budget-mb=N] [--work-dir=DIR]"
                 " [--resume[=DIR]] [--shard-prefix=N] [--shard-attempts=N]\n");
    return 2;
  }
  // Every integer flag is a count. Checking them here makes a malformed one
  // a usage error; the GetInt reads below then neither abort nor wrap.
  if (Status s = flags.CheckCounts({"k", "threads", "max-steps", "timeout-ms",
                                    "shards", "memory-budget-mb",
                                    "shard-prefix", "shard-attempts"});
      !s.ok()) {
    return UsageError(s);
  }
  if (flags.GetInt("shards", 0) > 0 ||
      flags.GetInt("memory-budget-mb", 0) > 0 || flags.Has("resume")) {
    return ShardedMain(flags, input);
  }

  Result<Dataset> dataset = ReadCsvInferSchemaFile(input);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "read %zu rows x %zu attributes from %s\n",
               dataset->num_rows(), dataset->num_attributes(), input.c_str());
  Result<GeneralizationScheme> scheme = LoadScheme(flags, dataset->schema());
  if (!scheme.ok()) {
    std::fprintf(stderr, "error in scheme: %s\n",
                 scheme.status().ToString().c_str());
    return 1;
  }
  auto scheme_ptr =
      std::make_shared<const GeneralizationScheme>(std::move(scheme).value());
  if (flags.GetBool("print-spec", false)) {
    std::printf("%s", FormatSchemeSpec(*scheme_ptr).c_str());
    return 0;
  }

  CliRun run;
  if (const int code = SetUpRun(flags, &run); code != 0) return code;
  ProgressReporter progress_reporter;
  if (flags.GetBool("progress", false)) {
    run.ctx.set_progress_observer(progress_reporter.AsObserver());
  }
  const PrecomputedLoss loss(scheme_ptr, dataset.value(), *run.request.measure,
                             run.request.config.num_threads);
  Result<AnonymizationResult> result =
      Anonymize(dataset.value(), loss, run.request.config);
  progress_reporter.Finish();
  if (!result.ok()) {
    std::fprintf(stderr, "anonymization failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const AnonymizationResult& r = result.value();
  std::string report;
  if (flags.GetBool("report", false)) {
    report =
        BuildUtilityReport(dataset.value(), r.table).ToString() +
        Printf("degraded: %s\nstop reason: %s\niterations completed: %zu\n"
               "records suppressed by fallback: %zu\n",
               r.degraded ? "yes" : "no", StopReasonName(r.stop_reason),
               r.iterations_completed, r.records_suppressed);
  }
  // The engine counters are deterministic at every thread count, so the
  // stats are a stable regression surface.
  const auto fields = [&](std::string* out) {
    const EngineCounters& c = r.counters;
    *out += "\"elapsed_seconds\":";
    AppendJsonNumber(out, r.elapsed_seconds);
    *out += r.degraded ? ",\"degraded\":true" : ",\"degraded\":false";
    *out += ",\"degraded_stage\":";
    AppendJsonString(out, r.degraded_stage);
    *out += ",\"iterations_completed\":" +
            std::to_string(r.iterations_completed) + ",";
    *out += "\"records_suppressed\":" + std::to_string(r.records_suppressed) +
            ",";
    *out += "\"counters\":{";
    *out += "\"merges\":" + std::to_string(c.merges) + ",";
    *out += "\"rescans\":" + std::to_string(c.rescans) + ",";
    *out += "\"heap_rebuilds\":" + std::to_string(c.heap_rebuilds) + ",";
    *out += "\"closure_hits\":" + std::to_string(c.closure_hits) + ",";
    *out += "\"closure_misses\":" + std::to_string(c.closure_misses) + ",";
    *out += "\"closure_hit_rate\":";
    AppendJsonNumber(out, c.closure_hit_rate());
    *out += ",\"upgrade_steps\":" + std::to_string(c.upgrade_steps) + ",";
    *out += "\"parallel_chunks\":" + std::to_string(c.parallel_chunks);
    *out += "}";
  };
  return FinishRun(
      flags, run,
      RunOutcome{
          .table = r.table,
          .dataset = dataset.value(),
          .degraded = r.degraded,
          .stop_reason = r.stop_reason,
          .report = std::move(report),
          .stats_json = StatsJson(run, r.loss, fields),
          .summary = Printf("method %s, k=%zu: loss(%s) = %.4f, %.2fs",
                            AnonymizationMethodName(run.request.config.method),
                            run.request.config.k,
                            loss.measure_name().c_str(), r.loss,
                            r.elapsed_seconds),
          .degraded_note = Printf(
              "run degraded (%s) in stage %s after %zu iterations; %zu"
              " records coarsened by the fallback — output is valid but"
              " lossier\n",
              StopReasonName(r.stop_reason),
              r.degraded_stage.empty() ? "unknown" : r.degraded_stage.c_str(),
              r.iterations_completed, r.records_suppressed),
      });
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::RealMain(argc, argv); }
