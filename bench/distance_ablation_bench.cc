// Ablation over the four distance functions of Section V-A.2 (plus the
// Nergiz-Clifton asymmetric variant), reproducing the paper's "additional
// conclusion" that functions (10) and (11) consistently bring the best
// results among the agglomerative k-anonymizers.
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "kanon/algo/agglomerative.h"
#include "kanon/common/table_printer.h"

namespace kanon {
namespace bench {
namespace {

int Run(const BenchConfig& config) {
  PrintHeader("Distance-function ablation (Section V-A.2)", config);

  // Rank points: for each (dataset, measure, k) cell, the best distance
  // function gets 0 penalty, others their relative loss excess.
  std::map<DistanceFunction, double> total_excess;
  std::map<DistanceFunction, int> wins;

  for (const char* dataset_name : {"ART", "ADT", "CMC"}) {
    const Workload workload = MustWorkload(dataset_name, config);
    for (const char* measure_name : {"EM", "LM"}) {
      std::unique_ptr<LossMeasure> measure =
          MakeMeasure(measure_name).value();
      PrecomputedLoss loss(workload.scheme, workload.dataset, *measure);

      std::printf("%s / %s\n", dataset_name, measure_name);
      TablePrinter t;
      t.SetHeader({"distance", "k=5", "k=10", "k=15", "k=20"});
      std::map<DistanceFunction, std::vector<double>> losses;
      for (DistanceFunction f : kAllDistanceFunctions) {
        AgglomerativeOptions options;
        options.distance = f;
        std::vector<std::string> cells = {DistanceFunctionName(f)};
        for (size_t k : kPaperKs) {
          Result<GeneralizedTable> table =
              AgglomerativeKAnonymize(workload.dataset, loss, k, options);
          KANON_CHECK(table.ok(), table.status().ToString());
          const double pi = loss.TableLoss(table.value());
          losses[f].push_back(pi);
          cells.push_back(Cell(pi));
        }
        t.AddRow(cells);
      }
      std::printf("%s\n", t.ToString().c_str());

      for (size_t i = 0; i < kPaperKs.size(); ++i) {
        double best = 1e18;
        DistanceFunction best_f = DistanceFunction::kWeighted;
        for (const auto& [f, values] : losses) {
          if (values[i] < best) {
            best = values[i];
            best_f = f;
          }
        }
        ++wins[best_f];
        for (const auto& [f, values] : losses) {
          total_excess[f] += values[i] / best - 1.0;
        }
      }
    }
  }

  std::printf("aggregate (24 cells: 3 datasets x 2 measures x 4 ks)\n");
  TablePrinter summary;
  summary.SetHeader({"distance", "wins", "avg excess over best"});
  for (DistanceFunction f : kAllDistanceFunctions) {
    summary.AddRow({DistanceFunctionName(f), std::to_string(wins[f]),
                    Cell(100.0 * total_excess[f] / 24.0) + "%"});
  }
  std::printf("%s\n", summary.ToString().c_str());

  const double eq10_11 =
      total_excess[DistanceFunction::kLogWeighted] +
      total_excess[DistanceFunction::kRatio];
  const double eq8_9 = total_excess[DistanceFunction::kWeighted] +
                       total_excess[DistanceFunction::kPlain];
  std::printf("shape: (10)+(11) excess %.1f%% vs (8)+(9) excess %.1f%%"
              " — paper says (10) and (11) are consistently best: %s\n",
              100.0 * eq10_11 / 24.0, 100.0 * eq8_9 / 24.0,
              eq10_11 <= eq8_9 ? "[OK]" : "[MISMATCH]");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
