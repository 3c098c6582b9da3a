// Quickstart: build a tiny table, define generalization hierarchies,
// k-anonymize it, and inspect the result.
//
//   ./quickstart [--k=2]
#include <cstdio>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/loss/entropy_measure.h"

using namespace kanon;

int main(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Every integer flag is a count: a malformed one is a usage error.
  if (Status s = flags.CheckCounts({"k"}); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  const size_t k = static_cast<size_t>(flags.GetInt("k", 2));

  // 1. Describe the public attributes (the quasi-identifiers).
  AttributeDomain age = AttributeDomain::IntegerRange("age", 20, 39);
  Result<AttributeDomain> zipcode = AttributeDomain::Create(
      "zipcode", {"68420", "68421", "68422", "68423", "90001", "90002"});
  Result<AttributeDomain> sex = AttributeDomain::Create("sex", {"M", "F"});
  Result<Schema> schema =
      Schema::Create({age, zipcode.value(), sex.value()});

  // 2. Define what generalizations are permissible per attribute:
  //    age in nested 5/10-year bands, zipcodes grouped by prefix, sex can
  //    only be suppressed entirely.
  Result<Hierarchy> age_h = Hierarchy::Intervals(age.size(), {5, 10});
  Result<Hierarchy> zip_h = Hierarchy::FromLabelGroups(
      zipcode.value(),
      {{"68420", "68421", "68422", "68423"}, {"90001", "90002"}});
  Result<Hierarchy> sex_h = Hierarchy::SuppressionOnly(2);
  Result<GeneralizationScheme> scheme = GeneralizationScheme::Create(
      schema.value(), {age_h.value(), zip_h.value(), sex_h.value()});
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
    return 1;
  }
  auto scheme_ptr =
      std::make_shared<const GeneralizationScheme>(std::move(scheme).value());

  // 3. Fill the table (in a real application: ReadCsvFile).
  Dataset patients(scheme_ptr->schema());
  const char* rows[][3] = {
      {"23", "68421", "M"}, {"24", "68423", "M"}, {"27", "68420", "F"},
      {"29", "68422", "F"}, {"31", "90001", "M"}, {"33", "90002", "M"},
      {"36", "90001", "F"}, {"38", "90002", "M"},
  };
  for (const auto& row : rows) {
    Status s = patients.AppendRowLabels({row[0], row[1], row[2]});
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 4. Anonymize: the entropy measure drives the optimization.
  PrecomputedLoss loss(scheme_ptr, patients, EntropyMeasure());
  AnonymizerConfig config;
  config.k = k;
  config.method = AnonymizationMethod::kAgglomerative;
  config.distance = DistanceFunction::kRatio;  // Eq. (11), a paper favorite.
  Result<AnonymizationResult> result = Anonymize(patients, loss, config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  // 5. Inspect.
  std::printf("original table:\n");
  for (size_t i = 0; i < patients.num_rows(); ++i) {
    std::printf("  %s\n",
                scheme_ptr->Format(scheme_ptr->Identity(patients.row(i)))
                    .c_str());
  }
  std::printf("\n%zu-anonymized table (entropy loss %.3f bits/entry,"
              " %.1f ms):\n",
              k, result->loss, result->elapsed_seconds * 1e3);
  std::printf("%s", result->table.ToString().c_str());

  const Result<AnonymityReport> report =
      AnalyzeAnonymity(patients, result->table, k);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s", report->ToString().c_str());
  return report->k_anonymous ? 0 : 1;
}
