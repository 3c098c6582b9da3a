// Tests for attribute weights: AnonymizerConfig::attr_weights runs every
// pipeline on the reweighted loss of PrecomputedLoss::WithAttributeWeights.
//
// Determinism: uniform weights (power-of-two magnitudes, 1.0 included)
// reweight every cost row by exactly 1.0, so the weighted run must be
// byte-identical to the unweighted one, on every pipeline.
// Metamorphic: doubling every weight doubles both w_j and Σw exactly, so
// the w_j·r/Σw scales — and hence the whole run — must be bit-identical.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/precomputed_loss.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

constexpr AnonymizationMethod kAllMethods[] = {
    AnonymizationMethod::kAgglomerative,
    AnonymizationMethod::kModifiedAgglomerative,
    AnonymizationMethod::kForest,
    AnonymizationMethod::kKKNearestNeighbors,
    AnonymizationMethod::kKKGreedyExpansion,
    AnonymizationMethod::kGlobal,
    AnonymizationMethod::kFullDomain,
};

TEST(AttrWeightsTest, UniformWeightsAreByteIdenticalOnEveryPipeline) {
  auto scheme = SmallScheme();
  const Dataset dataset = SmallRandomDataset(*scheme, 60, /*seed=*/41);
  const PrecomputedLoss loss(scheme, dataset, EntropyMeasure());
  for (AnonymizationMethod method : kAllMethods) {
    AnonymizerConfig config;
    config.k = 3;
    config.method = method;
    const AnonymizationResult plain =
        Unwrap(Anonymize(dataset, loss, config));
    config.attr_weights = {1.0, 1.0};
    const AnonymizationResult weighted =
        Unwrap(Anonymize(dataset, loss, config));
    EXPECT_TRUE(plain.table == weighted.table)
        << AnonymizationMethodName(method);
    EXPECT_EQ(plain.loss, weighted.loss) << AnonymizationMethodName(method);
  }
}

TEST(AttrWeightsTest, DoublingAllWeightsIsAMetamorphicNoOp) {
  auto scheme = SmallScheme();
  const Dataset dataset = SmallRandomDataset(*scheme, 60, /*seed=*/42);
  const PrecomputedLoss loss(scheme, dataset, EntropyMeasure());
  for (AnonymizationMethod method : kAllMethods) {
    AnonymizerConfig config;
    config.k = 3;
    config.method = method;
    config.attr_weights = {3.0, 1.0};
    const AnonymizationResult once = Unwrap(Anonymize(dataset, loss, config));
    config.attr_weights = {6.0, 2.0};
    const AnonymizationResult twice =
        Unwrap(Anonymize(dataset, loss, config));
    EXPECT_TRUE(once.table == twice.table)
        << AnonymizationMethodName(method);
    EXPECT_EQ(once.loss, twice.loss) << AnonymizationMethodName(method);
  }
}

TEST(AttrWeightsTest, ExtremeWeightsSteerTheClustering) {
  // Weight zip at zero: generalizing zip is free, so the run should prefer
  // coarsening zip and keep sex exact wherever the data allows — the
  // opposite emphasis of a heavy zip weight. The two runs must differ on
  // this dataset (seed chosen so the unweighted clusterings are nontrivial).
  auto scheme = SmallScheme();
  const Dataset dataset = SmallRandomDataset(*scheme, 60, /*seed=*/43);
  const PrecomputedLoss loss(scheme, dataset, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 3;
  config.attr_weights = {0.0, 1.0};
  const AnonymizationResult zip_free = Unwrap(Anonymize(dataset, loss, config));
  config.attr_weights = {1.0, 0.0};
  const AnonymizationResult sex_free = Unwrap(Anonymize(dataset, loss, config));
  EXPECT_FALSE(zip_free.table == sex_free.table);
}

TEST(AttrWeightsTest, ReportedLossStaysUnderTheOriginalMeasure) {
  // result.loss is Π under the unweighted measure even for weighted runs,
  // so runs with different weights stay comparable on one scale.
  auto scheme = SmallScheme();
  const Dataset dataset = SmallRandomDataset(*scheme, 60, /*seed=*/44);
  const PrecomputedLoss loss(scheme, dataset, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 3;
  config.attr_weights = {5.0, 1.0};
  const AnonymizationResult result = Unwrap(Anonymize(dataset, loss, config));
  EXPECT_EQ(result.loss, loss.TableLoss(result.table));
}

TEST(AttrWeightsTest, RejectsMalformedWeights) {
  auto scheme = SmallScheme();
  const Dataset dataset = SmallRandomDataset(*scheme, 20, /*seed=*/45);
  const PrecomputedLoss loss(scheme, dataset, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 2;
  for (const std::vector<double>& bad :
       {std::vector<double>{1.0},                       // wrong arity
        std::vector<double>{1.0, 1.0, 1.0},             // wrong arity
        std::vector<double>{-1.0, 1.0},                 // negative
        std::vector<double>{0.0, 0.0},                  // all zero
        std::vector<double>{std::nan(""), 1.0},         // non-finite
        std::vector<double>{1e308, 1e308},              // Σw overflows
        std::vector<double>{1e-320, 0.0}}) {            // r/Σw overflows
    config.attr_weights = bad;
    for (AnonymizationMethod method : kAllMethods) {
      config.method = method;
      const Result<AnonymizationResult> result =
          Anonymize(dataset, loss, config);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << AnonymizationMethodName(method);
    }
  }
}

TEST(AttrWeightsTest, WithAttributeWeightsScalesCostRows) {
  auto scheme = SmallScheme();
  const Dataset dataset = SmallRandomDataset(*scheme, 20, /*seed=*/46);
  const PrecomputedLoss loss(scheme, dataset, EntropyMeasure());
  // r = 2, weights {3, 1}: scale_0 = 3·2/4 = 1.5, scale_1 = 1·2/4 = 0.5.
  const PrecomputedLoss reweighted =
      Unwrap(loss.WithAttributeWeights({3.0, 1.0}));
  for (size_t j = 0; j < 2; ++j) {
    const double scale = j == 0 ? 1.5 : 0.5;
    for (SetId s = 0; s < scheme->hierarchy(j).num_sets(); ++s) {
      EXPECT_EQ(reweighted.EntryCost(j, s), loss.EntryCost(j, s) * scale);
    }
  }
  // Power-of-two uniform weights reproduce the original costs bit for bit.
  const PrecomputedLoss uniform =
      Unwrap(loss.WithAttributeWeights({2.0, 2.0}));
  for (size_t j = 0; j < 2; ++j) {
    for (SetId s = 0; s < scheme->hierarchy(j).num_sets(); ++s) {
      EXPECT_EQ(uniform.EntryCost(j, s), loss.EntryCost(j, s));
    }
  }
}

}  // namespace
}  // namespace kanon
