// Compares the basic agglomerative algorithm (Algorithm 1) with its
// modified variant (Algorithm 2), reproducing the paper's observation that
// the corrections usually reduce the information loss, but negligibly so
// for distance functions (10) and (11) — those already grow clusters of
// the required size.
#include <cstdio>

#include "bench_common.h"
#include "kanon/algo/agglomerative.h"
#include "kanon/common/table_printer.h"

namespace kanon {
namespace bench {
namespace {

int Run(const BenchConfig& config) {
  PrintHeader("Basic vs modified agglomerative (Algorithms 1 and 2)",
              config);

  double improvement_89 = 0.0;   // Relative gain for (8) and (9).
  double improvement_1011 = 0.0; // Relative gain for (10) and (11).
  int cells_89 = 0;
  int cells_1011 = 0;

  for (const char* dataset_name : {"ART", "CMC"}) {
    const Workload workload = MustWorkload(dataset_name, config);
    std::unique_ptr<LossMeasure> measure = MakeMeasure("EM").value();
    PrecomputedLoss loss(workload.scheme, workload.dataset, *measure);

    std::printf("%s / EM\n", dataset_name);
    TablePrinter t;
    t.SetHeader({"distance", "variant", "k=5", "k=10", "k=15", "k=20"});
    for (DistanceFunction f :
         {DistanceFunction::kWeighted, DistanceFunction::kPlain,
          DistanceFunction::kLogWeighted, DistanceFunction::kRatio}) {
      double basic[4];
      double modified[4];
      for (int variant = 0; variant < 2; ++variant) {
        AgglomerativeOptions options;
        options.distance = f;
        options.modified = variant == 1;
        std::vector<std::string> cells = {
            variant == 0 ? DistanceFunctionName(f) : "",
            variant == 0 ? "basic" : "modified"};
        for (size_t i = 0; i < kPaperKs.size(); ++i) {
          Result<GeneralizedTable> table = AgglomerativeKAnonymize(
              workload.dataset, loss, kPaperKs[i], options);
          KANON_CHECK(table.ok(), table.status().ToString());
          const double pi = loss.TableLoss(table.value());
          (variant == 0 ? basic : modified)[i] = pi;
          cells.push_back(Cell(pi));
        }
        t.AddRow(cells);
      }
      for (int i = 0; i < 4; ++i) {
        const double gain = basic[i] > 0 ? 1.0 - modified[i] / basic[i] : 0.0;
        if (f == DistanceFunction::kWeighted ||
            f == DistanceFunction::kPlain) {
          improvement_89 += gain;
          ++cells_89;
        } else {
          improvement_1011 += gain;
          ++cells_1011;
        }
      }
      t.AddSeparator();
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  improvement_89 *= 100.0 / cells_89;
  improvement_1011 *= 100.0 / cells_1011;
  std::printf(
      "avg improvement of the modified variant: %.1f%% for (8)/(9),"
      " %.1f%% for (10)/(11)\n",
      improvement_89, improvement_1011);
  std::printf(
      "shape: improvements are negligible for (10)/(11) (paper: \"only"
      " little room for improvement\"): %s\n",
      improvement_1011 < 3.0 ? "[OK]" : "[MISMATCH]");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
