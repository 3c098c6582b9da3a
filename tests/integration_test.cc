// End-to-end flows across modules: workload generation → anonymization →
// verification → attack → metrics → CSV round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/global_anonymizer.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/attack.h"
#include "kanon/anonymity/verify.h"
#include "kanon/data/csv.h"
#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/datasets/cmc.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/loss/table_metrics.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::Unwrap;

TEST(IntegrationTest, ArtEndToEnd) {
  Workload w = Unwrap(MakeArtWorkload(120, 11));
  PrecomputedLoss em(w.scheme, w.dataset, EntropyMeasure());

  AnonymizerConfig config;
  config.k = 5;
  config.method = AnonymizationMethod::kAgglomerative;
  config.distance = DistanceFunction::kRatio;
  AnonymizationResult kanon = Unwrap(Anonymize(w.dataset, em, config));
  config.method = AnonymizationMethod::kKKGreedyExpansion;
  AnonymizationResult kk = Unwrap(Anonymize(w.dataset, em, config));

  EXPECT_TRUE(Unwrap(IsKAnonymous(kanon.table, 5)));
  EXPECT_TRUE(Unwrap(IsKKAnonymous(w.dataset, kk.table, 5)));
  // The headline utility ordering on a realistic workload.
  EXPECT_LE(kk.loss, kanon.loss + 1e-9);

  // The first adversary cannot beat k on either table.
  const AttackResult attack_kanon = MatchReductionAttack(w.dataset, kanon.table, 5);
  EXPECT_GE(attack_kanon.min_neighbors(), 5u);
  EXPECT_GE(attack_kanon.min_matches(), 5u);
}

TEST(IntegrationTest, AdultKKThenGlobalPipeline) {
  Workload w = Unwrap(MakeAdultWorkload(150, 12));
  PrecomputedLoss em(w.scheme, w.dataset, EntropyMeasure());
  const size_t k = 4;

  GeneralizedTable kk =
      Unwrap(KKAnonymize(w.dataset, em, k, K1Algorithm::kGreedyExpansion));
  ASSERT_TRUE(Unwrap(IsKKAnonymous(w.dataset, kk, k)));
  const double kk_loss = em.TableLoss(kk);

  GlobalAnonymizationResult global =
      Unwrap(MakeGlobal1KAnonymous(w.dataset, em, k, kk));
  EXPECT_TRUE(Unwrap(IsGlobal1KAnonymous(w.dataset, global.table, k)));
  const double global_loss = em.TableLoss(global.table);
  EXPECT_GE(global_loss, kk_loss - 1e-12);

  // After globalization the second adversary finds no breach.
  const AttackResult attack = MatchReductionAttack(w.dataset, global.table, k);
  EXPECT_TRUE(attack.breached_records.empty());
}

TEST(IntegrationTest, CmcClassificationMetricImproves) {
  // CM of a (k,k) table should not be much worse than CM of the basic
  // k-anonymization — and both must be valid fractions.
  Workload w = Unwrap(MakeCmcWorkload(200, 13));
  PrecomputedLoss lm(w.scheme, w.dataset, LmMeasure());
  AnonymizerConfig config;
  config.k = 5;
  config.method = AnonymizationMethod::kAgglomerative;
  AnonymizationResult kanon = Unwrap(Anonymize(w.dataset, lm, config));
  const double cm = ClassificationMetric(w.dataset, kanon.table);
  EXPECT_GE(cm, 0.0);
  EXPECT_LE(cm, 1.0);
  const uint64_t dm = DiscernibilityMetric(kanon.table);
  EXPECT_GE(dm, 5u * w.dataset.num_rows());  // Groups of >= k.
}

TEST(IntegrationTest, AnonymizedCsvExportRoundTrip) {
  // Export the generalized table as CSV labels and re-read it.
  Workload w = Unwrap(MakeArtWorkload(40, 14));
  PrecomputedLoss em(w.scheme, w.dataset, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 4;
  AnonymizationResult result = Unwrap(Anonymize(w.dataset, em, config));

  std::ostringstream out;
  for (size_t i = 0; i < result.table.num_rows(); ++i) {
    out << w.scheme->Format(result.table.record(i)) << "\n";
  }
  const std::string text = out.str();
  EXPECT_EQ(static_cast<size_t>(
                std::count(text.begin(), text.end(), '\n')),
            w.dataset.num_rows());
}

TEST(IntegrationTest, DatasetCsvRoundTripPreservesAnonymity) {
  Workload w = Unwrap(MakeArtWorkload(60, 15));
  const char* path = "/tmp/kanon_integration_art.csv";
  {
    std::ofstream out(path);
    ASSERT_TRUE(WriteCsv(w.dataset, out).ok());
  }
  Result<Dataset> reread = ReadCsvFile(w.dataset.schema(), path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->num_rows(), w.dataset.num_rows());
  for (size_t i = 0; i < reread->num_rows(); ++i) {
    EXPECT_EQ(reread->row(i), w.dataset.row(i));
  }
  std::remove(path);
}

TEST(IntegrationTest, SubsampledWorkloadStillWorks) {
  Workload w = Unwrap(MakeCmcWorkload(300, 16));
  Dataset head = w.dataset.Head(50);
  PrecomputedLoss em(w.scheme, head, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 3;
  config.method = AnonymizationMethod::kGlobal;
  AnonymizationResult result = Unwrap(Anonymize(head, em, config));
  EXPECT_TRUE(Unwrap(IsGlobal1KAnonymous(head, result.table, 3)));
}

TEST(IntegrationTest, ReportAgreesWithIndividualVerifiers) {
  Workload w = Unwrap(MakeArtWorkload(80, 17));
  PrecomputedLoss em(w.scheme, w.dataset, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 4;
  config.method = AnonymizationMethod::kKKGreedyExpansion;
  AnonymizationResult result = Unwrap(Anonymize(w.dataset, em, config));
  const AnonymityReport report = Unwrap(AnalyzeAnonymity(w.dataset, result.table, 4));
  EXPECT_EQ(report.k_anonymous, Unwrap(IsKAnonymous(result.table, 4)));
  EXPECT_EQ(report.one_k, Unwrap(Is1KAnonymous(w.dataset, result.table, 4)));
  EXPECT_EQ(report.k_one, Unwrap(IsK1Anonymous(w.dataset, result.table, 4)));
  EXPECT_EQ(report.kk, Unwrap(IsKKAnonymous(w.dataset, result.table, 4)));
  EXPECT_EQ(report.global_one_k,
            Unwrap(IsGlobal1KAnonymous(w.dataset, result.table, 4)));
}

TEST(IntegrationTest, EntropyAndLmAgreeOnOrderingOfExtremes) {
  // Identity loses nothing; full suppression loses the most — under every
  // measure and on every workload.
  for (auto make : {+[] { return MakeArtWorkload(50, 18); },
                    +[] { return MakeAdultWorkload(50, 18); },
                    +[] { return MakeCmcWorkload(50, 18); }}) {
    Workload w = Unwrap(make());
    for (int measure = 0; measure < 2; ++measure) {
      PrecomputedLoss loss =
          measure == 0 ? PrecomputedLoss(w.scheme, w.dataset, EntropyMeasure())
                       : PrecomputedLoss(w.scheme, w.dataset, LmMeasure());
      GeneralizedTable identity =
          GeneralizedTable::Identity(w.scheme, w.dataset);
      EXPECT_DOUBLE_EQ(loss.TableLoss(identity), 0.0);
      GeneralizedTable suppressed(w.scheme);
      for (size_t i = 0; i < w.dataset.num_rows(); ++i) {
        suppressed.AppendRecord(w.scheme->Suppressed());
      }
      EXPECT_GT(loss.TableLoss(suppressed), 0.0);
    }
  }
}

}  // namespace
}  // namespace kanon
