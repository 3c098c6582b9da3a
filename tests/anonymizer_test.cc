#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/brute_force.h"
#include "kanon/algo/diverse_anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/hash.h"
#include "kanon/datasets/art.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

TEST(AnonymizerTest, MethodNames) {
  EXPECT_STREQ(AnonymizationMethodName(AnonymizationMethod::kAgglomerative),
               "agglomerative");
  EXPECT_STREQ(
      AnonymizationMethodName(AnonymizationMethod::kModifiedAgglomerative),
      "modified-agglomerative");
  EXPECT_STREQ(AnonymizationMethodName(AnonymizationMethod::kForest),
               "forest");
  EXPECT_STREQ(
      AnonymizationMethodName(AnonymizationMethod::kKKNearestNeighbors),
      "kk-nearest-neighbors");
  EXPECT_STREQ(
      AnonymizationMethodName(AnonymizationMethod::kKKGreedyExpansion),
      "kk-greedy-expansion");
  EXPECT_STREQ(AnonymizationMethodName(AnonymizationMethod::kGlobal),
               "global-1k");
  EXPECT_STREQ(AnonymizationMethodName(AnonymizationMethod::kFullDomain),
               "full-domain");
}

TEST(AnonymizerTest, EveryMethodMeetsItsNotion) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 30, 1);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());

  struct Case {
    AnonymizationMethod method;
    AnonymityNotion notion;
  };
  const Case cases[] = {
      {AnonymizationMethod::kAgglomerative, AnonymityNotion::kKAnonymity},
      {AnonymizationMethod::kModifiedAgglomerative,
       AnonymityNotion::kKAnonymity},
      {AnonymizationMethod::kForest, AnonymityNotion::kKAnonymity},
      {AnonymizationMethod::kKKNearestNeighbors, AnonymityNotion::kKK},
      {AnonymizationMethod::kKKGreedyExpansion, AnonymityNotion::kKK},
      {AnonymizationMethod::kGlobal, AnonymityNotion::kGlobalOneK},
      {AnonymizationMethod::kFullDomain, AnonymityNotion::kKAnonymity},
  };
  for (const Case& c : cases) {
    AnonymizerConfig config;
    config.k = 3;
    config.method = c.method;
    AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
    EXPECT_TRUE(Unwrap(SatisfiesNotion(c.notion, d, result.table, 3)))
        << AnonymizationMethodName(c.method);
    EXPECT_NEAR(result.loss, loss.TableLoss(result.table), 1e-12);
    EXPECT_GE(result.elapsed_seconds, 0.0);
  }
}

TEST(AnonymizerTest, PropagatesErrors) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 4, 2);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  AnonymizerConfig config;
  config.k = 5;  // k > n.
  for (AnonymizationMethod method :
       {AnonymizationMethod::kAgglomerative, AnonymizationMethod::kForest,
        AnonymizationMethod::kKKGreedyExpansion,
        AnonymizationMethod::kGlobal}) {
    config.method = method;
    EXPECT_FALSE(Anonymize(d, loss, config).ok())
        << AnonymizationMethodName(method);
  }
}

// Every engine rejects k outside [1, n] through one check, and both
// messages name k and n — the pipelines and the brute-force oracles alike.
TEST(AnonymizerTest, OutOfRangeKNamesKAndNForEveryMethod) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 8, 2);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  for (size_t k : {size_t{0}, size_t{9}}) {
    std::vector<std::pair<std::string, Status>> errors;
    for (AnonymizationMethod method : AllMethods()) {
      AnonymizerConfig config;
      config.k = k;
      config.method = method;
      errors.emplace_back(AnonymizationMethodName(method),
                          Anonymize(d, loss, config).status());
    }
    errors.emplace_back("brute-force",
                        OptimalKAnonymityBruteForce(d, loss, k).status());
    errors.emplace_back("brute-force-k1",
                        OptimalK1BruteForce(d, loss, k).status());
    for (const auto& [name, status] : errors) {
      const std::string& message = status.message();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
      EXPECT_EQ(message.rfind("k = " + std::to_string(k) + " ", 0), 0u)
          << name << ": " << message;
      EXPECT_NE(message.find("the number of records"), std::string::npos)
          << name << ": " << message;
      EXPECT_EQ(message.substr(message.size() - 2), " 8")
          << name << ": " << message;
    }
  }
}

TEST(AnonymizerTest, DistanceFlagReachesAgglomerative) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 30, 3);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  AnonymizerConfig a;
  a.k = 3;
  a.distance = DistanceFunction::kWeighted;
  AnonymizerConfig b = a;
  b.distance = DistanceFunction::kRatio;
  AnonymizationResult ra = Unwrap(Anonymize(d, loss, a));
  AnonymizationResult rb = Unwrap(Anonymize(d, loss, b));
  // Both are valid 3-anonymizations (they may or may not coincide).
  EXPECT_TRUE(Unwrap(IsKAnonymous(ra.table, 3)));
  EXPECT_TRUE(Unwrap(IsKAnonymous(rb.table, 3)));
}

TEST(AnonymizerTest, UtilityOrderingAcrossNotions) {
  // Global builds on (k,k) and only coarsens, so loss(global) >= loss(kk);
  // both should stay below the forest baseline on aggregate.
  auto scheme = SmallScheme();
  double kk = 0.0;
  double global = 0.0;
  double forest = 0.0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Dataset d = SmallRandomDataset(*scheme, 40, 70 + seed);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    AnonymizerConfig config;
    config.k = 4;
    config.method = AnonymizationMethod::kKKGreedyExpansion;
    kk += Unwrap(Anonymize(d, loss, config)).loss;
    config.method = AnonymizationMethod::kGlobal;
    global += Unwrap(Anonymize(d, loss, config)).loss;
    config.method = AnonymizationMethod::kForest;
    forest += Unwrap(Anonymize(d, loss, config)).loss;
  }
  EXPECT_GE(global, kk - 1e-9);
  EXPECT_LE(kk, forest * 1.02);
}

// Pinned output bytes for the run shapes the golden suite does not cover:
// every DistanceFunction, attribute weights, and the ℓ-diversity repair.
// The input is the paper's artificial table (n = 80) with a class column
// derived from A5 and A6. A digest is FNV-1a over the serialized CSV of the
// published table; a loss is pinned as its exact bits (hex float).
struct PinnedRun {
  const char* name;
  uint64_t digest;
  double loss;
};

uint64_t TableDigest(const GeneralizedTable& table) {
  std::ostringstream csv;
  KANON_CHECK(WriteGeneralizedCsv(table, csv).ok());
  const std::string bytes = csv.str();
  return Fnv1a(bytes.data(), bytes.size());
}

Workload PinnedArt() {
  Workload art = Unwrap(MakeArtWorkload(/*n=*/80, /*seed=*/15));
  std::vector<ValueCode> classes;
  for (size_t i = 0; i < art.dataset.num_rows(); ++i) {
    classes.push_back(
        static_cast<ValueCode>((art.dataset.at(i, 4) + art.dataset.at(i, 5)) %
                               3));
  }
  KANON_CHECK(
      art.dataset
          .SetClassColumn(
              Unwrap(AttributeDomain::Create("cls", {"c0", "c1", "c2"})),
              std::move(classes))
          .ok());
  return art;
}

// Compares a run against its pin, printing the actual pin line on a miss.
void ExpectPinned(const PinnedRun& pin, const GeneralizedTable& table,
                  double loss) {
  const uint64_t digest = TableDigest(table);
  EXPECT_EQ(digest, pin.digest) << pin.name;
  EXPECT_EQ(loss, pin.loss) << pin.name;
  if (digest != pin.digest || loss != pin.loss) {
    std::printf("    {\"%s\", 0x%016llxull, %a},\n", pin.name,
                static_cast<unsigned long long>(digest), loss);
  }
}

TEST(AnonymizerTest, CostDrivenPipelinesIgnoreTheDistance) {
  const Workload art = PinnedArt();
  const PrecomputedLoss loss(art.scheme, art.dataset, EntropyMeasure());
  const PinnedRun pins[] = {
      {"forest", 0xb1a93cbed021fa20ull, 0x1.acd4a25ead11dp+0},
      {"kk-nn", 0x3a06803ca7de5eacull, 0x1.555b915376f26p+0},
      {"kk-greedy", 0xe73b7c6a6210e219ull, 0x1.2d432db013e8dp+0},
      {"global", 0xa296ca883c0305afull, 0x1.384715fe3c92ap+0},
      {"full-domain", 0x620a654731213ac7ull, 0x1.f97b1e572840ep+0},
  };
  for (const PinnedRun& pin : pins) {
    AnonymizerConfig config;
    config.k = 4;
    config.method = Unwrap(ParseMethodShortName(pin.name));
    std::vector<AnonymizationResult> runs;
    for (DistanceFunction f : kAllDistanceFunctions) {
      config.distance = f;
      runs.push_back(Unwrap(Anonymize(art.dataset, loss, config)));
      EXPECT_TRUE(runs.back().table == runs.front().table)
          << pin.name << " under " << DistanceFunctionName(f);
    }
    ExpectPinned(pin, runs.front().table, runs.front().loss);
  }
}

TEST(AnonymizerTest, AttributeWeightedRunsArePinned) {
  const Workload art = PinnedArt();
  const PrecomputedLoss loss(art.scheme, art.dataset, EntropyMeasure());
  const PinnedRun pins[] = {
      {"agglomerative", 0x2f6a8f5587227c20ull, 0x1.820cae1c72867p+0},
      {"modified", 0x2f6a8f5587227c20ull, 0x1.820cae1c72867p+0},
      {"forest", 0x5738cbc806648904ull, 0x1.e60d04227ed16p+0},
      {"kk-nn", 0x135585d8766d45e4ull, 0x1.9ade65b05b673p+0},
      {"kk-greedy", 0x6f96df85a734eea9ull, 0x1.6857f56b1d19dp+0},
      {"global", 0x1b617e910b25d99bull, 0x1.6ccd1fb93671ep+0},
      {"full-domain", 0x4f6617734cf549ddull, 0x1.fa8a13cb42a52p+0},
  };
  for (const PinnedRun& pin : pins) {
    AnonymizerConfig config;
    config.k = 5;
    config.method = Unwrap(ParseMethodShortName(pin.name));
    config.distance = DistanceFunction::kRatio;
    config.attr_weights = {3, 1, 1, 1, 1, 1};
    const AnonymizationResult result =
        Unwrap(Anonymize(art.dataset, loss, config));
    ExpectPinned(pin, result.table, result.loss);
  }
}

TEST(AnonymizerTest, LDiverseRunsArePinnedPerDistance) {
  const Workload art = PinnedArt();
  const PrecomputedLoss loss(art.scheme, art.dataset, EntropyMeasure());
  const PinnedRun pins[] = {
      {"1", 0x6bfa1fec3c67e76full, 0x1.a8dab298ec6cap+0},
      {"2", 0x511f6789fa771642ull, 0x1.8da65e97e516bp+0},
      {"3", 0x1d886170a4b4c8b3ull, 0x1.95327e6cc2f16p+0},
      {"4", 0xdbb9922d06bdb00bull, 0x1.88835bb003846p+0},
      {"nc", 0xd3a1f8ad75406d4dull, 0x1.73a753808357ep+0},
  };
  for (const PinnedRun& pin : pins) {
    AgglomerativeOptions options;
    options.distance = Unwrap(ParseDistanceShortName(pin.name));
    const GeneralizedTable table = Unwrap(
        LDiverseKAnonymize(art.dataset, loss, /*k=*/5, /*l=*/2, options));
    ExpectPinned(pin, table, loss.TableLoss(table));
  }
}

}  // namespace
}  // namespace kanon
