// Randomized checking harness: generates small anonymization instances,
// runs every pipeline on them, and validates the paper's theorems as
// metamorphic/differential properties (see docs/checking.md).
//
// Run a campaign (the usual mode):
//   kanon_check --campaign --seed=4 --trials=200
//               [--props=a,b,c]     # property filter; default: all
//               [--threads=N]       # trial fan-out; report is byte-identical
//                                   # for every N (0 = all cores)
//               [--report=PATH]     # write the JSON report ("-" = stdout,
//                                   # the default)
//               [--metrics-json=PATH] # write the campaign outcome as a flat
//                                   # telemetry metrics document ("-" = stdout)
//               [--repro-dir=DIR]   # write one .repro file per failure
//               [--no-shrink]       # report failures unminimized
//               [--shrink-evals=N]  # shrink budget per failure (default 500)
//               [--max-rows=N] [--max-attrs=N] [--max-domain=N]
//
// Replay reproducers (regression mode; also exercised by ctest):
//   kanon_check --replay file.repro [more.repro ...]
//
// List the property catalog with the paper references each encodes:
//   kanon_check --list-props
//
// Fault injection composes: KANON_FAILPOINTS="agglomerative.closure=3"
// makes pipelines fail mid-run, which the pipeline-error properties catch,
// shrink, and write out as replayable reproducers.
//
// Exit codes: 0 all properties/replays passed; 1 failures; 2 usage error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "kanon/check/campaign.h"
#include "kanon/check/properties.h"
#include "kanon/check/repro.h"
#include "kanon/common/flags.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/trace_export.h"

namespace kanon {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kanon_check --campaign --seed=S --trials=N "
               "[--props=a,b] [--threads=T]\n"
               "                   [--report=PATH] [--metrics-json=PATH] "
               "[--repro-dir=DIR] [--no-shrink]\n"
               "       kanon_check --replay FILE.repro [...]\n"
               "       kanon_check --list-props\n");
  return 2;
}

int ListProps() {
  for (const check::Property& property : check::PropertyCatalog()) {
    std::printf("%-24s  %s\n", property.name, property.description);
    std::printf("%-24s  encodes: %s\n", "", property.paper_ref);
  }
  return 0;
}

int Replay(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    std::fprintf(stderr, "kanon_check: --replay needs .repro files\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "kanon_check: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Result<check::ReproCase> repro = check::ParseRepro(text.str());
    if (!repro.ok()) {
      std::fprintf(stderr, "kanon_check: %s: %s\n", path.c_str(),
                   repro.status().ToString().c_str());
      return 2;
    }
    Result<check::ReproOutcome> outcome = check::ReplayRepro(*repro);
    if (!outcome.ok()) {
      std::fprintf(stderr, "kanon_check: %s: %s\n", path.c_str(),
                   outcome.status().ToString().c_str());
      return 2;
    }
    std::printf("%s: %s — %s\n", path.c_str(),
                outcome->matched ? "ok" : "MISMATCH",
                outcome->Describe(*repro).c_str());
    if (!outcome->matched) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int Campaign(const FlagParser& flags) {
  check::CampaignOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  options.trials = static_cast<size_t>(flags.GetInt("trials", 100));
  options.threads = static_cast<int>(flags.GetInt("threads", 1));
  options.props = flags.GetString("props", "all");
  options.shrink = !flags.GetBool("no-shrink", false);
  options.shrink_max_evaluations =
      static_cast<size_t>(flags.GetInt("shrink-evals", 500));
  options.generator.max_rows =
      static_cast<size_t>(flags.GetInt("max-rows", 48));
  options.generator.max_attributes =
      static_cast<size_t>(flags.GetInt("max-attrs", 3));
  options.generator.max_domain_size =
      static_cast<size_t>(flags.GetInt("max-domain", 12));

  Result<check::CampaignReport> report = check::RunCampaign(options);
  if (!report.ok()) {
    std::fprintf(stderr, "kanon_check: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }

  const std::string json = report->ToJson();
  const std::string report_path = flags.GetString("report", "-");
  if (report_path == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream out(report_path);
    if (!out) {
      std::fprintf(stderr, "kanon_check: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    out << json;
  }

  // The campaign outcome as a flat metrics document — same schema as
  // `kanon_cli --metrics-json`, so CI dashboards consume one format.
  const std::string metrics_path = flags.GetString("metrics-json", "");
  if (!metrics_path.empty()) {
    MetricsRegistry metrics;
    metrics.GetCounter("check.seed")->Set(options.seed);
    metrics.GetCounter("check.trials")->Set(report->trials);
    metrics.GetCounter("check.evaluations")->Set(report->evaluations);
    metrics.GetCounter("check.passed")->Set(report->passed);
    metrics.GetCounter("check.failed")->Set(report->failures.size());
    metrics.GetCounter("check.generator_errors")
        ->Set(report->generator_errors.size());
    metrics.GetGauge("check.pass_rate")
        ->Set(report->evaluations == 0
                  ? 1.0
                  : static_cast<double>(report->passed) /
                        static_cast<double>(report->evaluations));
    const Status written = WriteMetricsJson(metrics, metrics_path);
    if (!written.ok()) {
      std::fprintf(stderr, "kanon_check: %s\n", written.ToString().c_str());
      return 2;
    }
  }

  const std::string repro_dir = flags.GetString("repro-dir", "");
  if (!repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(repro_dir, ec);
    if (ec) {
      std::fprintf(stderr, "kanon_check: cannot create %s: %s\n",
                   repro_dir.c_str(), ec.message().c_str());
      return 2;
    }
    for (const check::CampaignFailure& failure : report->failures) {
      const std::string path = repro_dir + "/" + failure.property + "-trial" +
                               std::to_string(failure.trial) + ".repro";
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "kanon_check: cannot write %s\n", path.c_str());
        return 2;
      }
      out << failure.repro;
    }
  }

  for (const check::CampaignFailure& failure : report->failures) {
    std::fprintf(stderr, "FAIL trial %zu %s [%s]: %s\n", failure.trial,
                 failure.property.c_str(), failure.kind.c_str(),
                 failure.message.c_str());
  }
  for (const std::string& error : report->generator_errors) {
    std::fprintf(stderr, "GENERATOR ERROR %s\n", error.c_str());
  }
  std::fprintf(stderr, "kanon_check: %zu/%zu evaluations passed, %zu failed\n",
               report->passed, report->evaluations,
               report->failures.size());
  return report->ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "kanon_check: %s\n", parsed.ToString().c_str());
    return Usage();
  }
  // Every integer flag is a count: a malformed one is a usage error.
  if (Status s = flags.CheckCounts({"seed", "trials", "threads",
                                    "shrink-evals", "max-rows", "max-attrs",
                                    "max-domain"});
      !s.ok()) {
    std::fprintf(stderr, "kanon_check: %s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.Has("list-props")) return ListProps();
  if (flags.Has("replay")) {
    std::vector<std::string> paths = flags.positional();
    const std::string inline_path = flags.GetString("replay", "");
    if (!inline_path.empty() && inline_path != "true") {
      paths.insert(paths.begin(), inline_path);
    }
    return Replay(paths);
  }
  if (flags.Has("campaign")) return Campaign(flags);
  return Usage();
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
