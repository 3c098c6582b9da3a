#include "kanon/check/campaign.h"

#include <utility>

#include "kanon/check/repro.h"
#include "kanon/check/shrink.h"
#include "kanon/check/trial.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/json_text.h"
#include "kanon/common/parallel.h"

namespace kanon {
namespace check {

namespace {

// Per-trial slot: each worker writes only its own, so the fan-out needs no
// locks and the assembled report is independent of scheduling.
struct TrialOutcome {
  size_t evaluations = 0;
  size_t passed = 0;
  std::vector<CampaignFailure> failures;
  std::string generator_error;
};

}  // namespace

Result<CampaignReport> RunCampaign(const CampaignOptions& options) {
  KANON_ASSIGN_OR_RETURN(const std::vector<const Property*> properties,
                         SelectProperties(options.props));
  if (options.trials == 0) {
    return Status::InvalidArgument("--trials must be >= 1");
  }

  // Failpoints armed via KANON_FAILPOINTS are global state; record them so
  // every written reproducer replays under the same injection.
  const std::vector<std::string> armed = failpoint::ArmedNames();

  std::vector<TrialOutcome> slots(options.trials);
  ParallelFor(
      options.trials, options.threads, /*ctx=*/nullptr, "check.campaign",
      [&](size_t trial_index) {
        TrialOutcome& slot = slots[trial_index];
        Result<TrialData> trial =
            MakeTrial(options.seed, trial_index, options.generator);
        if (!trial.ok()) {
          slot.generator_error = "trial " + std::to_string(trial_index) +
                                 ": " + trial.status().ToString();
          return;
        }
        for (const Property* property : properties) {
          PropertyResult result = property->run(trial.value());
          ++slot.evaluations;
          if (result.passed) {
            ++slot.passed;
            continue;
          }
          TrialData minimized = trial.value();
          PropertyResult final_result = result;
          if (options.shrink) {
            ShrinkOptions shrink_options;
            shrink_options.max_evaluations = options.shrink_max_evaluations;
            Result<ShrinkOutcome> shrunk =
                Shrink(trial.value(), *property, result, shrink_options);
            if (shrunk.ok()) {
              minimized = std::move(shrunk.value().data);
              final_result = std::move(shrunk.value().failure);
            }
          }
          CampaignFailure failure;
          failure.trial = trial_index;
          failure.property = property->name;
          failure.kind = final_result.kind;
          failure.message = final_result.message;
          failure.original_rows = trial->num_rows();
          failure.rows = minimized.num_rows();
          failure.attributes = minimized.num_attributes();
          ReproCase repro;
          repro.property = property->name;
          repro.expect_fail = true;
          repro.kind = final_result.kind;
          for (const std::string& name : armed) {
            repro.failpoints.emplace_back(name, 0);
          }
          repro.data = std::move(minimized);
          failure.repro = FormatRepro(repro);
          slot.failures.push_back(std::move(failure));
        }
      });

  CampaignReport report;
  report.seed = options.seed;
  report.trials = options.trials;
  for (const Property* property : properties) {
    report.properties.emplace_back(property->name);
  }
  for (TrialOutcome& slot : slots) {
    report.evaluations += slot.evaluations;
    report.passed += slot.passed;
    if (!slot.generator_error.empty()) {
      report.generator_errors.push_back(std::move(slot.generator_error));
    }
    for (CampaignFailure& failure : slot.failures) {
      report.failures.push_back(std::move(failure));
    }
  }
  return report;
}

std::string CampaignReport::ToJson() const {
  // Appends `items` as a one-line array of JSON strings.
  const auto string_array = [](std::string* out,
                               const std::vector<std::string>& items) {
    out->push_back('[');
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out->append(", ");
      AppendJsonString(out, items[i]);
    }
    out->push_back(']');
  };
  std::string out = "{\n";
  out += "  \"kanon_check\": 1,\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"trials\": " + std::to_string(trials) + ",\n";
  out += "  \"properties\": ";
  string_array(&out, properties);
  out += ",\n";
  out += "  \"evaluations\": " + std::to_string(evaluations) + ",\n";
  out += "  \"passed\": " + std::to_string(passed) + ",\n";
  out += "  \"failed\": " + std::to_string(failures.size()) + ",\n";
  out += "  \"generator_errors\": ";
  string_array(&out, generator_errors);
  out += ",\n";
  out += "  \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    const CampaignFailure& f = failures[i];
    out += i > 0 ? ",\n    {" : "\n    {";
    out += "\"trial\": " + std::to_string(f.trial) + ", \"property\": ";
    AppendJsonString(&out, f.property);
    out += ", \"kind\": ";
    AppendJsonString(&out, f.kind);
    out += ", \"message\": ";
    AppendJsonString(&out, f.message);
    out += ", \"original_rows\": " + std::to_string(f.original_rows) + ", ";
    out += "\"rows\": " + std::to_string(f.rows) + ", ";
    out += "\"attributes\": " + std::to_string(f.attributes) + ", ";
    out += "\"repro\": ";
    AppendJsonString(&out, f.repro);
    out += "}";
  }
  out += failures.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace check
}  // namespace kanon
