// Reproduces Figure 2 of the paper: information loss under the entropy
// measure on the Adult dataset, as a function of k, for the agglomerative
// k-anonymizer, the forest baseline, and the (k,k)-anonymizer. Prints the
// three series plus an ASCII rendition of the figure.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "kanon/common/table_printer.h"

namespace kanon {
namespace bench {
namespace {

// Series read off Figure 2 (they match the ADT/EM block of Table I).
const double kPaperKAnon[] = {0.66, 0.93, 1.08, 1.18};
const double kPaperForest[] = {1.02, 1.45, 1.63, 1.73};
const double kPaperKK[] = {0.50, 0.75, 0.90, 1.00};

void AsciiPlot(const double* kanon, const double* forest, const double* kk) {
  // 12 rows, loss scaled to the observed maximum.
  double max_loss = 0.0;
  for (int i = 0; i < 4; ++i) {
    max_loss = std::max({max_loss, kanon[i], forest[i], kk[i]});
  }
  const int rows = 12;
  std::printf("loss\n");
  for (int r = rows; r >= 1; --r) {
    const double level = max_loss * r / rows;
    std::string line = "  |";
    for (int i = 0; i < 4; ++i) {
      auto mark = [&](double v, char c) {
        return v >= level - max_loss / (2 * rows) &&
                       v < level + max_loss / (2 * rows)
                   ? c
                   : '\0';
      };
      char c = ' ';
      if (char m = mark(forest[i], 'f')) c = m;
      if (char m = mark(kanon[i], 'k')) c = m;
      if (char m = mark(kk[i], '2')) c = m;
      line += "    ";
      line += c;
      line += "    ";
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("  +----5--------10-------15-------20--> k\n");
  std::printf("  k = k-anon., f = forest alg., 2 = (k,k)-anon.\n");
}

int Run(const BenchConfig& config) {
  PrintHeader("Figure 2 — comparison of algorithms by the entropy measure"
              " (Adult)",
              config);

  const Workload workload = MustWorkload("ADT", config);
  std::unique_ptr<LossMeasure> measure = MakeMeasure("EM").value();
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
    t.AddRow({name, Cell(measured[0]) + " (" + Cell(paper[0]) + ")",
              Cell(measured[1]) + " (" + Cell(paper[1]) + ")",
              Cell(measured[2]) + " (" + Cell(paper[2]) + ")",
              Cell(measured[3]) + " (" + Cell(paper[3]) + ")"});
  };
  row("k-anon.", kanon, kPaperKAnon);
  row("forest alg.", forest, kPaperForest);
  row("(k,k)-anon.", kk, kPaperKK);
  std::printf("%s(measured value, paper value in parentheses)\n\n",
              t.ToString().c_str());

  AsciiPlot(kanon, forest, kk);

  // Shape: the curves are increasing and ordered kk < kanon < forest.
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
  std::printf("\nshape: series ordered (k,k) <= k-anon < forest: %s;"
              " all series increase with k: %s\n",
              ordered ? "yes [OK]" : "NO [MISMATCH]",
              increasing ? "yes [OK]" : "NO [MISMATCH]");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
