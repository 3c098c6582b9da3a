// Working with custom data: load a CSV, infer a schema, build hierarchies
// three ways (explicit label groups, integer bands, suppression-only),
// anonymize under both loss measures, and export the generalized table.
//
//   ./custom_hierarchy [--input=records.csv] [--k=3] [--output=anon.csv]
//
// Without --input a small demo CSV is synthesized in a temporary file.
#include <cstdio>
#include <fstream>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/data/csv.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"

using namespace kanon;

namespace {

const char* kDemoPath = "/tmp/kanon_custom_hierarchy_demo.csv";

void WriteDemoCsv() {
  std::ofstream f(kDemoPath);
  f << "department,seniority,site\n";
  const char* rows[] = {
      "engineering,junior,berlin",  "engineering,senior,berlin",
      "engineering,junior,munich",  "research,senior,berlin",
      "research,junior,munich",     "research,senior,munich",
      "sales,junior,london",        "sales,senior,london",
      "marketing,junior,london",    "marketing,senior,berlin",
      "support,junior,munich",      "support,senior,london",
  };
  for (const char* row : rows) f << row << "\n";
}

}  // namespace

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
  std::string input = flags.GetString("input", "");
  const size_t k = static_cast<size_t>(flags.GetInt("k", 3));
  const std::string output = flags.GetString("output", "");

  if (input.empty()) {
    WriteDemoCsv();
    input = kDemoPath;
    std::printf("no --input given; using a synthesized demo CSV at %s\n\n",
                input.c_str());
  }

  // Infer one categorical attribute per CSV column.
  Result<Dataset> data = ReadCsvInferSchemaFile(input);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Schema& schema = data->schema();
  std::printf("loaded %zu rows, %zu attributes:\n", data->num_rows(),
              schema.num_attributes());
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    std::printf("  %-12s %zu distinct values\n",
                schema.attribute(j).name().c_str(),
                schema.attribute(j).size());
  }

  // Build hierarchies. For the demo schema we group semantically; for an
  // arbitrary CSV every attribute falls back to suppression-only, which is
  // always a valid (if coarse) choice.
  std::vector<Hierarchy> hierarchies;
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    const AttributeDomain& attr = schema.attribute(j);
    Result<Hierarchy> h = Status::NotFound("no custom hierarchy");
    if (attr.name() == "department") {
      h = Hierarchy::FromLabelGroups(
          attr, {{"engineering", "research"},
                 {"sales", "marketing", "support"}});
    } else if (attr.name() == "site") {
      h = Hierarchy::FromLabelGroups(attr, {{"berlin", "munich"}});
    }
    if (!h.ok()) {
      h = Hierarchy::SuppressionOnly(attr.size());
    }
    if (!h.ok()) {
      std::fprintf(stderr, "%s\n", h.status().ToString().c_str());
      return 1;
    }
    hierarchies.push_back(std::move(h).value());
  }
  Result<GeneralizationScheme> scheme =
      GeneralizationScheme::Create(schema, std::move(hierarchies));
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
    return 1;
  }
  auto scheme_ptr =
      std::make_shared<const GeneralizationScheme>(std::move(scheme).value());

  // Anonymize under both measures and compare.
  Result<AnonymizationResult> chosen = Status::Internal("unset");
  for (const char* measure_name : {"EM", "LM"}) {
    PrecomputedLoss loss =
        std::string(measure_name) == "EM"
            ? PrecomputedLoss(scheme_ptr, data.value(), EntropyMeasure())
            : PrecomputedLoss(scheme_ptr, data.value(), LmMeasure());
    AnonymizerConfig config;
    config.k = k;
    config.method = AnonymizationMethod::kModifiedAgglomerative;
    Result<AnonymizationResult> result =
        Anonymize(data.value(), loss, config);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%zu-anonymization optimizing %s (loss %.3f):\n", k,
                measure_name, result->loss);
    std::printf("%s", result->table.ToString().c_str());
    if (std::string(measure_name) == "EM") {
      chosen = std::move(result);
    }
  }

  const Result<bool> k_anonymous = IsKAnonymous(chosen->table, k);
  if (!k_anonymous.ok() || !k_anonymous.value()) {
    std::fprintf(stderr, "internal error: table is not %zu-anonymous\n", k);
    return 1;
  }

  if (!output.empty()) {
    // Export the anonymized table as CSV with generalized labels.
    std::ofstream out(output);
    const GeneralizationScheme& s = *scheme_ptr;
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      out << (j ? "," : "") << schema.attribute(j).name();
    }
    out << "\n";
    for (size_t i = 0; i < chosen->table.num_rows(); ++i) {
      const GeneralizedRecord record = chosen->table.record(i);
      for (size_t j = 0; j < record.size(); ++j) {
        out << (j ? "," : "")
            << s.hierarchy(j).set(record[j]).ToString(schema.attribute(j));
      }
      out << "\n";
    }
    std::printf("\nwrote anonymized table to %s\n", output.c_str());
  }
  return 0;
}
