// Golden-output equivalence suite for the algo/core refactor: every
// pipeline × loss measure × testdata set must keep publishing the exact
// table the pre-refactor engines produced, at every thread count. The
// golden tables under tests/testdata/golden/ were captured from the
// pre-core engines; ReadGeneralizedCsv round-trips are exact, so a cell-wise
// table comparison is a byte-for-byte contract.
//
// Regenerating (only legitimate when an intentional output change lands):
//   KANON_REGEN_GOLDEN=1 ./golden_output_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/distance.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/generalization/scheme_spec.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"
#include "test_util.h"

#ifndef KANON_TESTDATA_DIR
#error "KANON_TESTDATA_DIR must point at tests/testdata"
#endif

namespace kanon {
namespace {

using testing::DuplicateHeavyArt;
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

struct GoldenCase {
  std::string name;  // Dataset tag used in the golden file name.
  std::shared_ptr<const GeneralizationScheme> scheme;
  Dataset dataset;
  size_t k;
};

std::vector<GoldenCase> AllCases() {
  std::vector<GoldenCase> cases;
  {
    auto scheme = SmallScheme();
    Dataset d = SmallRandomDataset(*scheme, 150, 20250807);
    cases.push_back({"small", scheme, std::move(d), 5});
  }
  {
    const std::string dir = KANON_TESTDATA_DIR;
    Dataset d = Unwrap(ReadCsvInferSchemaFile(dir + "/demo.csv"));
    auto scheme = std::make_shared<const GeneralizationScheme>(
        Unwrap(ParseSchemeSpecFile(d.schema(), dir + "/demo.spec")));
    cases.push_back({"demo", scheme, std::move(d), 2});
  }
  return cases;
}

std::string GoldenPath(const std::string& dataset, AnonymizationMethod method,
                       const std::string& measure) {
  return std::string(KANON_TESTDATA_DIR) + "/golden/" + dataset + "_" +
         AnonymizationMethodName(method) + "_" + measure + ".csv";
}

GeneralizedTable ReadGolden(std::shared_ptr<const GeneralizationScheme> scheme,
                            const std::string& path) {
  std::ifstream file(path);
  KANON_CHECK(file.good(), "cannot open golden file");
  return Unwrap(ReadGeneralizedCsv(std::move(scheme), file));
}

TEST(GoldenOutputTest, EveryPipelineReproducesPreRefactorTables) {
  const bool regen = std::getenv("KANON_REGEN_GOLDEN") != nullptr;
  const std::vector<GoldenCase> cases = AllCases();
  for (const GoldenCase& c : cases) {
    const std::vector<std::pair<std::string, std::unique_ptr<LossMeasure>>>
        measures = [] {
          std::vector<std::pair<std::string, std::unique_ptr<LossMeasure>>> m;
          m.emplace_back("EM", std::make_unique<EntropyMeasure>());
          m.emplace_back("LM", std::make_unique<LmMeasure>());
          return m;
        }();
    for (const auto& [measure_name, measure] : measures) {
      const PrecomputedLoss loss(c.scheme, c.dataset, *measure);
      for (AnonymizationMethod method : kAllMethods) {
        const std::string path = GoldenPath(c.name, method, measure_name);
        AnonymizerConfig config;
        config.k = c.k;
        config.method = method;
        // The goldens were written under eq. (10), the library default then.
        config.distance = DistanceFunction::kLogWeighted;
        if (regen) {
          config.num_threads = 1;
          const AnonymizationResult result =
              Unwrap(Anonymize(c.dataset, loss, config));
          ASSERT_TRUE(WriteGeneralizedCsvFile(result.table, path).ok())
              << path;
          continue;
        }
        const GeneralizedTable golden = ReadGolden(c.scheme, path);
        for (int threads : {1, 2, 4}) {
          config.num_threads = threads;
          const AnonymizationResult result =
              Unwrap(Anonymize(c.dataset, loss, config));
          EXPECT_TRUE(result.table == golden)
              << c.name << "/" << AnonymizationMethodName(method) << "/"
              << measure_name << " diverged from the pre-refactor golden at "
              << "--threads " << threads;
        }
        // Telemetry only observes: with a tracer and a metrics registry
        // installed the run publishes the same table.
        Tracer tracer;
        MetricsRegistry metrics;
        config.num_threads = 2;
        config.tracer = &tracer;
        config.metrics = &metrics;
        const AnonymizationResult traced =
            Unwrap(Anonymize(c.dataset, loss, config));
        EXPECT_TRUE(traced.table == golden)
            << c.name << "/" << AnonymizationMethodName(method) << "/"
            << measure_name << " diverged from the golden under telemetry";
        EXPECT_GT(tracer.total_spans(), 0u);
      }
    }
  }
}

// The agglomerative engine under every cluster distance, on ART rows where
// more than a quarter repeat a tuple. The suite above runs only eq. (10);
// the default (ratio, eq. 11) and Nergiz-Clifton are pinned here, on an
// input where tuple-mates tie at every distance.
TEST(GoldenOutputTest, AgglomerativeReproducesTablesAtEveryDistance) {
  const bool regen = std::getenv("KANON_REGEN_GOLDEN") != nullptr;
  const Workload dup = DuplicateHeavyArt(300, 120, 20080407);
  const PrecomputedLoss loss(dup.scheme, dup.dataset, EntropyMeasure());
  for (AnonymizationMethod method :
       {AnonymizationMethod::kAgglomerative,
        AnonymizationMethod::kModifiedAgglomerative}) {
    for (DistanceFunction distance :
         {DistanceFunction::kWeighted, DistanceFunction::kPlain,
          DistanceFunction::kLogWeighted, DistanceFunction::kRatio,
          DistanceFunction::kNergizClifton}) {
      const std::string tag =
          std::string("dist") + DistanceShortName(distance);
      const std::string path = GoldenPath("dup", method, tag + "_EM");
      AnonymizerConfig config;
      config.k = 6;
      config.method = method;
      config.distance = distance;
      if (regen) {
        config.num_threads = 1;
        const AnonymizationResult result =
            Unwrap(Anonymize(dup.dataset, loss, config));
        ASSERT_TRUE(WriteGeneralizedCsvFile(result.table, path).ok()) << path;
        continue;
      }
      const GeneralizedTable golden = ReadGolden(dup.scheme, path);
      for (int threads : {1, 2, 4}) {
        config.num_threads = threads;
        const AnonymizationResult result =
            Unwrap(Anonymize(dup.dataset, loss, config));
        EXPECT_TRUE(result.table == golden)
            << AnonymizationMethodName(method) << "/" << tag
            << " diverged from the golden at --threads " << threads;
      }
    }
  }
}

// The seven engine counters of every pipeline under EM on both golden
// datasets: the goldens pin what is published, this pins the work the
// engines count (merges, rescans, closure interning, upgrade steps and
// sweep chunks; heap_rebuilds is always 0), which a change to how closures
// are stored or swept must not move.
TEST(GoldenOutputTest, EngineCountersArePinnedUnderEm) {
  // Counters in declaration order: merges, rescans, heap_rebuilds,
  // closure_hits, closure_misses, upgrade_steps, parallel_chunks.
  struct Pinned {
    const char* dataset;
    AnonymizationMethod method;
    EngineCounters counters;
  };
  using M = AnonymizationMethod;
  const Pinned pins[] = {
      {"demo", M::kAgglomerative, {4, 0, 0, 0, 12, 0, 14}},
      {"demo", M::kModifiedAgglomerative, {4, 0, 0, 0, 12, 0, 14}},
      {"demo", M::kForest, {4, 8, 0, 0, 0, 0, 0}},
      {"demo", M::kKKNearestNeighbors, {0, 0, 0, 2, 6, 2, 8}},
      {"demo", M::kKKGreedyExpansion, {0, 0, 0, 2, 6, 2, 14}},
      {"demo", M::kGlobal, {0, 0, 0, 4, 12, 3, 14}},
      {"demo", M::kFullDomain, {0, 0, 0, 8, 16, 2, 6}},
      {"small", M::kAgglomerative, {121, 117, 0, 249, 22, 0, 255}},
      {"small", M::kModifiedAgglomerative, {125, 118, 0, 260, 25, 0, 265}},
      {"small", M::kForest, {136, 262, 0, 0, 0, 0, 0}},
      {"small", M::kKKNearestNeighbors, {0, 0, 0, 135, 15, 1, 150}},
      {"small", M::kKKGreedyExpansion, {0, 0, 0, 135, 15, 1, 16}},
      {"small", M::kGlobal, {0, 0, 0, 270, 30, 1, 16}},
      {"small", M::kFullDomain, {0, 0, 0, 277, 23, 1, 2}},
  };
  const std::vector<GoldenCase> cases = AllCases();
  for (const Pinned& pin : pins) {
    const GoldenCase* c = nullptr;
    for (const GoldenCase& candidate : cases) {
      if (candidate.name == pin.dataset) c = &candidate;
    }
    ASSERT_NE(c, nullptr) << pin.dataset;
    const PrecomputedLoss loss(c->scheme, c->dataset, EntropyMeasure());
    AnonymizerConfig config;
    config.k = c->k;
    config.method = pin.method;
    config.distance = DistanceFunction::kLogWeighted;  // As the goldens.
    const EngineCounters got =
        Unwrap(Anonymize(c->dataset, loss, config)).counters;
    const EngineCounters& want = pin.counters;
    const std::string at =
        std::string(pin.dataset) + "/" + AnonymizationMethodName(pin.method);
    EXPECT_EQ(got.merges, want.merges) << at;
    EXPECT_EQ(got.rescans, want.rescans) << at;
    EXPECT_EQ(got.heap_rebuilds, want.heap_rebuilds) << at;
    EXPECT_EQ(got.closure_hits, want.closure_hits) << at;
    EXPECT_EQ(got.closure_misses, want.closure_misses) << at;
    EXPECT_EQ(got.upgrade_steps, want.upgrade_steps) << at;
    EXPECT_EQ(got.parallel_chunks, want.parallel_chunks) << at;
  }
}

}  // namespace
}  // namespace kanon
