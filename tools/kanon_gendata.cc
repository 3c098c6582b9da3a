// Synthetic-workload generator: writes one of the library's generator
// datasets as a plain CSV plus its generalization spec, so the sharded
// out-of-core pipeline (and the benches / CI fault-injection jobs) can
// exercise file ingestion at any scale without shipping data files.
//
//   kanon_gendata --dataset=art|adult|cmc --rows=N [--seed=1]
//                 --output=data.csv [--spec-out=data.spec]
//
// The CSV carries the schema attributes only (no class column): it is the
// exact input format kanon_cli ingests. Output is deterministic in
// (dataset, rows, seed).
#include <cstdio>
#include <fstream>
#include <string>

#include "kanon/common/flags.h"
#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/datasets/cmc.h"
#include "kanon/generalization/scheme_spec.h"

namespace kanon {
namespace {

int RealMain(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  if (Status s = flags.CheckCounts({"rows", "seed"}); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::string dataset_name = flags.GetString("dataset", "art");
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 0));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string output = flags.GetString("output", "");
  const std::string spec_out = flags.GetString("spec-out", "");
  if (rows == 0 || output.empty()) {
    std::fprintf(stderr,
                 "usage: kanon_gendata --dataset=art|adult|cmc --rows=N"
                 " [--seed=1] --output=data.csv [--spec-out=data.spec]\n");
    return 2;
  }

  Result<Workload> workload = Status::InvalidArgument(
      "unknown --dataset '" + dataset_name + "' (art, adult, cmc)");
  if (dataset_name == "art") workload = MakeArtWorkload(rows, seed);
  if (dataset_name == "adult") workload = MakeAdultWorkload(rows, seed);
  if (dataset_name == "cmc") workload = MakeCmcWorkload(rows, seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = workload->dataset;
  const Schema& schema = dataset.schema();

  std::ofstream out(output);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 output.c_str());
    return 1;
  }
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    if (j > 0) out << ',';
    out << schema.attribute(j).name();
  }
  out << '\n';
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      if (j > 0) out << ',';
      out << schema.attribute(j).label(dataset.at(i, j));
    }
    out << '\n';
  }
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", output.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu rows x %zu attributes to %s\n",
               dataset.num_rows(), schema.num_attributes(), output.c_str());

  if (!spec_out.empty()) {
    std::ofstream spec(spec_out);
    spec << FormatSchemeSpec(*workload->scheme);
    spec.flush();
    if (!spec) {
      std::fprintf(stderr, "error writing %s\n", spec_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote spec %s\n", spec_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::RealMain(argc, argv); }
