// Reproduces Figure 3 of the paper: information loss under the LM measure
// on the Adult dataset, as a function of k, for the agglomerative
// k-anonymizer, the forest baseline, and the (k,k)-anonymizer.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "kanon/common/table_printer.h"

namespace kanon {
namespace bench {
namespace {

// Series read off Figure 3 (they match the ADT/LM block of Table I).
const double kPaperKAnon[] = {0.14, 0.20, 0.24, 0.26};
const double kPaperForest[] = {0.22, 0.37, 0.46, 0.53};
const double kPaperKK[] = {0.09, 0.13, 0.16, 0.18};

int Run(const BenchConfig& config) {
  PrintHeader("Figure 3 — comparison of algorithms by the LM measure"
              " (Adult)",
              config);

  const Workload workload = MustWorkload("ADT", config);
  std::unique_ptr<LossMeasure> measure = MakeMeasure("LM").value();
  PrecomputedLoss loss(workload.scheme, workload.dataset, *measure);

  double kanon[4];
  double forest[4];
  double kk[4];
  for (size_t i = 0; i < kPaperKs.size(); ++i) {
    const size_t k = kPaperKs[i];
    kanon[i] = BestKAnonLoss(workload.dataset, loss, k, nullptr);
    forest[i] = ForestLoss(workload.dataset, loss, k);
    kk[i] = BestKKLoss(workload.dataset, loss, k, nullptr);
  }

  TablePrinter t;
  t.SetHeader({"series", "k=5", "k=10", "k=15", "k=20"});
  auto row = [&t](const char* name, const double* measured,
                  const double* paper) {
    std::vector<std::string> cells = {name};
    for (int i = 0; i < 4; ++i) {
      cells.push_back(Cell(measured[i]) + " (" + Cell(paper[i]) + ")");
    }
    t.AddRow(cells);
  };
  row("k-anon.", kanon, kPaperKAnon);
  row("forest alg.", forest, kPaperForest);
  row("(k,k)-anon.", kk, kPaperKK);
  std::printf("%s(measured value, paper value in parentheses)\n\n",
              t.ToString().c_str());

  // Shape checks: ordering, growth with k, and the paper's observation
  // that the forest algorithm degrades faster under LM on Adult (its k=20
  // loss is about twice the agglomerative one).
  bool ordered = true;
  bool increasing = true;
  for (int i = 0; i < 4; ++i) {
    ordered = ordered && kk[i] <= kanon[i] + 1e-9 && kanon[i] < forest[i];
    if (i > 0) {
      increasing = increasing && kanon[i] >= kanon[i - 1] - 0.02 &&
                   forest[i] >= forest[i - 1] - 0.02 &&
                   kk[i] >= kk[i - 1] - 0.02;
    }
  }
  std::printf("shape: series ordered (k,k) <= k-anon < forest: %s;"
              " all series increase with k: %s;"
              " forest/k-anon gap at k=20: %.2fx (paper: %.2fx)\n",
              ordered ? "yes [OK]" : "NO [MISMATCH]",
              increasing ? "yes [OK]" : "NO [MISMATCH]",
              forest[3] / kanon[3], kPaperForest[3] / kPaperKAnon[3]);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
