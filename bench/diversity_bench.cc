// The ℓ-diversity extension (Section II points to Machanavajjhala et al.;
// the paper defers the combination to future work): utility cost of
// requiring distinct ℓ-diversity on top of k-anonymity, and how often a
// plain k-anonymization is already diverse.
#include <cstdio>

#include "bench_common.h"
#include "kanon/algo/agglomerative.h"
#include "kanon/algo/diverse_anonymizer.h"
#include "kanon/anonymity/diversity.h"
#include "kanon/common/table_printer.h"
#include "kanon/common/text.h"

namespace kanon {
namespace bench {
namespace {

int Run(const BenchConfig& config) {
  PrintHeader("ℓ-diversity on top of k-anonymity (extension)", config);

  // ADT (income: 2 classes) and CMC (method: 3 classes) have class
  // columns; ART does not.
  for (const char* dataset_name : {"ADT", "CMC"}) {
    const Workload workload = MustWorkload(dataset_name, config);
    const size_t num_classes = workload.dataset.class_domain().size();
    std::unique_ptr<LossMeasure> measure = MakeMeasure("EM").value();
    PrecomputedLoss loss(workload.scheme, workload.dataset, *measure);

    std::printf("%s (class column '%s', %zu classes)\n", dataset_name,
                workload.dataset.class_domain().name().c_str(), num_classes);
    TablePrinter t;
    t.SetHeader({"k", "plain loss", "plain diversity", "l", "diverse loss",
                 "extra%", "clusters merged"});
    for (size_t k : {5u, 10u}) {
      AgglomerativeOptions options;
      options.distance = DistanceFunction::kRatio;
      Result<Clustering> plain =
          AgglomerativeCluster(workload.dataset, loss, k, options);
      KANON_CHECK(plain.ok(), plain.status().ToString());
      GeneralizedTable plain_table = TableFromClustering(
          workload.scheme, workload.dataset, plain.value());
      const double plain_loss = loss.TableLoss(plain_table);
      const size_t plain_diversity =
          DistinctDiversity(workload.dataset, plain_table);

      for (size_t l = 2; l <= num_classes; ++l) {
        Result<Clustering> diverse =
            LDiverseCluster(workload.dataset, loss, k, l, options);
        KANON_CHECK(diverse.ok(), diverse.status().ToString());
        GeneralizedTable diverse_table = TableFromClustering(
            workload.scheme, workload.dataset, diverse.value());
        KANON_CHECK(
            IsDistinctLDiverse(workload.dataset, diverse_table, l),
            "repair pass must produce an ℓ-diverse table");
        const double diverse_loss = loss.TableLoss(diverse_table);
        t.AddRow({std::to_string(k), Cell(plain_loss),
                  std::to_string(plain_diversity), std::to_string(l),
                  Cell(diverse_loss),
                  FormatDouble(plain_loss > 0
                                   ? 100.0 * (diverse_loss / plain_loss - 1)
                                   : 0.0,
                               1),
                  std::to_string(plain->clusters.size() -
                                 diverse->clusters.size())});
      }
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  std::printf(
      "'plain diversity' = the distinct diversity a plain k-anonymization"
      " achieves incidentally; 'clusters merged' = repair merges needed.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
