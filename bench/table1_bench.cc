// Reproduces Table I of the paper ("Summary of results"): for each dataset
// {ART, ADT, CMC} and measure {EM, LM}, the information loss of the best
// agglomerative k-anonymization, the forest baseline, and the better
// (k,k)-anonymization, for k in {5, 10, 15, 20}.
//
// Printed next to every measured value is the value the paper reports, and
// per block the two shape checks that constitute the paper's headline
// claims: agglomerative beats forest by 20-50% and (k,k) improves on the
// best k-anonymization by 10-30%.
#include <cstdio>

#include "bench_common.h"
#include "kanon/common/table_printer.h"
#include "kanon/common/timer.h"

namespace kanon {
namespace bench {
namespace {

struct PaperBlock {
  const char* dataset;
  const char* measure;
  double best_kanon[4];
  double forest[4];
  double kk[4];
};

// Table I as printed in the paper.
const PaperBlock kPaperTable1[] = {
    {"ART", "EM",
     {0.65, 0.98, 1.13, 1.22},
     {0.89, 1.25, 1.42, 1.51},
     {0.53, 0.83, 0.99, 1.08}},
    {"ADT", "EM",
     {0.66, 0.93, 1.08, 1.18},
     {1.02, 1.45, 1.63, 1.73},
     {0.50, 0.75, 0.90, 1.00}},
    {"CMC", "EM",
     {0.67, 0.95, 1.08, 1.20},
     {0.99, 1.31, 1.46, 1.53},
     {0.54, 0.80, 0.98, 1.10}},
    {"ART", "LM",
     {0.12, 0.19, 0.23, 0.25},
     {0.15, 0.24, 0.28, 0.31},
     {0.10, 0.16, 0.19, 0.22}},
    {"ADT", "LM",
     {0.14, 0.20, 0.24, 0.26},
     {0.22, 0.37, 0.46, 0.53},
     {0.09, 0.13, 0.16, 0.18}},
    {"CMC", "LM",
     {0.14, 0.21, 0.25, 0.28},
     {0.19, 0.31, 0.40, 0.44},
     {0.11, 0.17, 0.20, 0.23}},
};

int Run(const BenchConfig& config) {
  PrintHeader("Table I — summary of results", config);

  for (const PaperBlock& block : kPaperTable1) {
    const Workload workload = MustWorkload(block.dataset, config);
    std::unique_ptr<LossMeasure> measure =
        MakeMeasure(block.measure).value();
    PrecomputedLoss loss(workload.scheme, workload.dataset, *measure);

    double kanon[4];
    double forest[4];
    double kk[4];
    Timer timer;
    for (size_t i = 0; i < kPaperKs.size(); ++i) {
      const size_t k = kPaperKs[i];
      kanon[i] = BestKAnonLoss(workload.dataset, loss, k, nullptr);
      forest[i] = ForestLoss(workload.dataset, loss, k);
      kk[i] = BestKKLoss(workload.dataset, loss, k, nullptr);
    }

    std::printf("%s / %s  (n=%zu, %.1fs)\n", block.dataset, block.measure,
                workload.dataset.num_rows(), timer.ElapsedSeconds());
    TablePrinter t;
    t.SetHeader({"k", "5", "10", "15", "20"});
    auto row = [&t](const char* name, const double* measured,
                    const double* paper) {
      std::vector<std::string> cells = {name};
      for (int i = 0; i < 4; ++i) {
        cells.push_back(Cell(measured[i]) + " (paper " + Cell(paper[i]) +
                        ")");
      }
      t.AddRow(cells);
    };
    row("best k-anon", kanon, block.best_kanon);
    row("forest", forest, block.forest);
    row("(k,k)-anon", kk, block.kk);
    std::printf("%s", t.ToString().c_str());

    // Shape checks.
    double forest_gain = 0.0;
    double kk_gain = 0.0;
    for (int i = 0; i < 4; ++i) {
      forest_gain += 1.0 - kanon[i] / forest[i];
      kk_gain += 1.0 - kk[i] / kanon[i];
    }
    forest_gain *= 100.0 / 4;
    kk_gain *= 100.0 / 4;
    std::printf(
        "shape: agglomerative beats forest by %.0f%% (paper: 20-50%%)%s;"
        " (k,k) improves on best k-anon by %.0f%% (paper: 10-30%%)%s\n\n",
        forest_gain, forest_gain >= 5.0 ? " [OK]" : " [WEAK]", kk_gain,
        kk_gain >= 3.0 ? " [OK]" : " [WEAK]");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
