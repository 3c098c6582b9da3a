// Unit tests for the randomized checking subsystem (src/kanon/check/):
// generator determinism, property selection, reproducer round-trips, the
// failure shrinker, and campaign smoke runs. docs/checking.md documents
// the property catalog these exercise.
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "kanon/check/campaign.h"
#include "kanon/check/generators.h"
#include "kanon/check/properties.h"
#include "kanon/check/repro.h"
#include "kanon/check/shrink.h"
#include "kanon/check/trial.h"
#include "kanon/common/failpoint.h"

namespace kanon {
namespace check {
namespace {

bool SameDataset(const Dataset& a, const Dataset& b) {
  if (a.num_rows() != b.num_rows() ||
      a.num_attributes() != b.num_attributes()) {
    return false;
  }
  for (size_t i = 0; i < a.num_rows(); ++i) {
    for (size_t j = 0; j < a.num_attributes(); ++j) {
      if (a.at(i, j) != b.at(i, j)) return false;
    }
  }
  return true;
}

TEST(GeneratorTest, SameSeedSameInstance) {
  GeneratorOptions options;
  Rng a(42), b(42);
  Result<GeneratedInstance> first = GenerateInstance(options, &a);
  Result<GeneratedInstance> second = GenerateInstance(options, &b);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(first->dataset.schema().Equals(second->dataset.schema()));
  EXPECT_TRUE(SameDataset(first->dataset, second->dataset));
}

TEST(GeneratorTest, InstancesAreValidAndVaried) {
  GeneratorOptions options;
  std::set<size_t> row_counts;
  std::set<size_t> attribute_counts;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    Result<GeneratedInstance> instance = GenerateInstance(options, &rng);
    ASSERT_TRUE(instance.ok()) << instance.status().ToString();
    ASSERT_GE(instance->dataset.num_rows(), 1u);
    ASSERT_LE(instance->dataset.num_rows(), options.max_rows);
    row_counts.insert(instance->dataset.num_rows());
    attribute_counts.insert(instance->dataset.num_attributes());
    // Every cell must be in range for its (scheme-covered) domain.
    for (size_t j = 0; j < instance->dataset.num_attributes(); ++j) {
      EXPECT_EQ(instance->scheme->hierarchy(j).domain_size(),
                instance->dataset.schema().attribute(j).size());
    }
  }
  // The generator must actually vary shapes, not collapse to one.
  EXPECT_GT(row_counts.size(), 5u);
  EXPECT_GT(attribute_counts.size(), 1u);
}

TEST(TrialTest, MakeTrialDependsOnlyOnSeedAndIndex) {
  GeneratorOptions options;
  Result<TrialData> direct = MakeTrial(9, 17, options);
  ASSERT_TRUE(direct.ok());
  // Materializing other trials first must not disturb trial 17.
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(MakeTrial(9, i, options).ok());
  }
  Result<TrialData> again = MakeTrial(9, 17, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(direct->config.k, again->config.k);
  EXPECT_EQ(direct->config.measure, again->config.measure);
  EXPECT_TRUE(SameDataset(direct->dataset, again->dataset));
}

// The run vocabulary kanon_cli, kanond and .repro files share: every value's
// name is distinct and parses back to a value printing the same name, and
// an unknown name is InvalidArgument.
TEST(TrialTest, RunVocabularyRoundTrips) {
  std::vector<std::string> methods;
  for (AnonymizationMethod m : AllMethods()) {
    methods.push_back(MethodShortName(m));
  }
  std::vector<std::string> distances;
  for (DistanceFunction f : kAllDistanceFunctions) {
    distances.push_back(DistanceShortName(f));
  }
  std::vector<std::string> notions;
  for (AnonymityNotion n :
       {AnonymityNotion::kKAnonymity, AnonymityNotion::kOneK,
        AnonymityNotion::kKOne, AnonymityNotion::kKK,
        AnonymityNotion::kGlobalOneK}) {
    notions.push_back(NotionShortName(n));
  }
  using Reprint = std::function<Result<std::string>(const std::string&)>;
  const struct {
    const char* vocabulary;
    std::vector<std::string> names;
    size_t expected_size;
    Reprint reprint;  // Parse the name, then print the parsed value.
  } rows[] = {
      {"method", methods, 7,
       [](const std::string& name) -> Result<std::string> {
         KANON_ASSIGN_OR_RETURN(AnonymizationMethod m,
                                ParseMethodShortName(name));
         return std::string(MethodShortName(m));
       }},
      {"distance", distances, 5,
       [](const std::string& name) -> Result<std::string> {
         KANON_ASSIGN_OR_RETURN(DistanceFunction f,
                                ParseDistanceShortName(name));
         return std::string(DistanceShortName(f));
       }},
      {"notion", notions, 5,
       [](const std::string& name) -> Result<std::string> {
         KANON_ASSIGN_OR_RETURN(AnonymityNotion n, ParseNotionShortName(name));
         return std::string(NotionShortName(n));
       }},
      {"measure", {"EM", "LM", "TM", "SUP"}, 4,
       [](const std::string& name) -> Result<std::string> {
         KANON_ASSIGN_OR_RETURN(std::unique_ptr<LossMeasure> m,
                                MakeMeasure(name));
         return m->name();
       }},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.vocabulary);
    EXPECT_EQ(std::set<std::string>(row.names.begin(), row.names.end()).size(),
              row.expected_size);
    for (const std::string& name : row.names) {
      Result<std::string> again = row.reprint(name);
      ASSERT_TRUE(again.ok()) << name << ": " << again.status().ToString();
      EXPECT_EQ(*again, name);
    }
    Result<std::string> unknown = row.reprint("bogus");
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PropertyTest, CatalogNamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const Property& property : PropertyCatalog()) {
    EXPECT_TRUE(names.insert(property.name).second) << property.name;
    EXPECT_EQ(FindProperty(property.name), &property);
    EXPECT_NE(std::string(property.paper_ref), "");
  }
  EXPECT_EQ(FindProperty("no-such-property"), nullptr);
}

TEST(PropertyTest, SelectPropertiesFilters) {
  Result<std::vector<const Property*>> all = SelectProperties("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), PropertyCatalog().size());

  Result<std::vector<const Property*>> two =
      SelectProperties("pipeline-verifies, implication-lattice");
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ(std::string((*two)[0]->name), "pipeline-verifies");

  EXPECT_FALSE(SelectProperties("pipeline-verifies,bogus").ok());
}

TEST(ReproTest, FormatParseRoundTrip) {
  GeneratorOptions options;
  Result<TrialData> trial = MakeTrial(3, 5, options);
  ASSERT_TRUE(trial.ok());
  ReproCase repro;
  repro.property = "pipeline-verifies";
  repro.expect_fail = false;
  repro.data = *trial;

  const std::string text = FormatRepro(repro);
  Result<ReproCase> parsed = ParseRepro(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->property, repro.property);
  EXPECT_EQ(parsed->data.config.k, repro.data.config.k);
  EXPECT_EQ(parsed->data.config.measure, repro.data.config.measure);
  EXPECT_TRUE(SameDataset(parsed->data.dataset, repro.data.dataset));
  EXPECT_EQ(FormatRepro(*parsed), text);
}

TEST(ReproTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseRepro("").ok());
  EXPECT_FALSE(ParseRepro("kanon-repro v1\nend\n").ok());
  EXPECT_FALSE(ParseRepro("not-a-repro\n").ok());
  // Missing 'kind' on an expect-fail reproducer.
  EXPECT_FALSE(ParseRepro("kanon-repro v1\n"
                          "property pipeline-verifies\n"
                          "expect fail\n"
                          "attr a0 0 1\n"
                          "row 0\n"
                          "end\n")
                   .ok());
  // A measure name the library does not know, like an unknown method.
  const Result<ReproCase> bad_measure = ParseRepro(
      "kanon-repro v1\n"
      "property pipeline-verifies\n"
      "expect pass\n"
      "measure EMM\n"
      "attr a0 0 1\n"
      "row 0\n"
      "end\n");
  ASSERT_FALSE(bad_measure.ok());
  EXPECT_EQ(bad_measure.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_measure.status().message().find("EMM"), std::string::npos);
}

// End-to-end acceptance of the fault-injection loop: an armed failpoint
// makes a pipeline fail, the property reports a stable kind, the shrinker
// minimizes the instance to <= 10 rows, and the written reproducer replays
// to the same failure.
TEST(ShrinkTest, InjectedFailureShrinksToTinyReplayableRepro) {
  const Property* property = FindProperty("pipeline-verifies");
  ASSERT_NE(property, nullptr);

  failpoint::Arm("agglomerative.closure", 0);
  GeneratorOptions options;
  Result<TrialData> trial = MakeTrial(4, 3, options);  // 30+ rows.
  ASSERT_TRUE(trial.ok());
  ASSERT_GE(trial->num_rows(), 10u);

  PropertyResult failure = property->run(*trial);
  ASSERT_FALSE(failure.passed);
  EXPECT_EQ(failure.kind, "pipeline-error:Internal:agglomerative");

  ShrinkOptions shrink_options;
  Result<ShrinkOutcome> shrunk =
      Shrink(*trial, *property, failure, shrink_options);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ(shrunk->failure.kind, failure.kind);
  EXPECT_LE(shrunk->data.num_rows(), 10u);
  EXPECT_LE(shrunk->data.config.methods.size(), 1u);

  ReproCase repro;
  repro.property = property->name;
  repro.expect_fail = true;
  repro.kind = shrunk->failure.kind;
  repro.failpoints.emplace_back("agglomerative.closure", 0);
  repro.data = shrunk->data;
  failpoint::Disarm("agglomerative.closure");

  // Round-trip through the text format, then replay.
  Result<ReproCase> parsed = ParseRepro(FormatRepro(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<ReproOutcome> outcome = ReplayRepro(*parsed);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->matched) << outcome->Describe(*parsed);
  // Replay disarmed its failpoints: a second plain run must pass.
  EXPECT_TRUE(property->run(*trial).passed);
}

TEST(CampaignTest, SmokeCampaignPassesEveryProperty) {
  CampaignOptions options;
  options.seed = 4;
  options.trials = 30;
  options.threads = 2;
  Result<CampaignReport> report = RunCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToJson();
  EXPECT_EQ(report->evaluations, 30 * PropertyCatalog().size());
  EXPECT_EQ(report->passed, report->evaluations);
}

// The exact report bytes, escapes included: CI archives and diffs them.
TEST(CampaignTest, ReportJsonBytesArePinned) {
  CampaignReport report;
  report.seed = 4;
  report.trials = 2;
  report.properties = {"pipeline-verifies", "shard-accounting"};
  report.evaluations = 4;
  report.passed = 3;
  CampaignFailure failure;
  failure.trial = 1;
  failure.property = "pipeline-verifies";
  failure.kind = "verify:k";
  failure.message = "said \"no\"\nthen\tstopped";
  failure.original_rows = 12;
  failure.rows = 3;
  failure.attributes = 1;
  failure.repro = "kanon-repro 1\n";
  report.failures.push_back(failure);
  EXPECT_EQ(report.ToJson(),
            "{\n"
            "  \"kanon_check\": 1,\n"
            "  \"seed\": 4,\n"
            "  \"trials\": 2,\n"
            "  \"properties\": [\"pipeline-verifies\", "
            "\"shard-accounting\"],\n"
            "  \"evaluations\": 4,\n"
            "  \"passed\": 3,\n"
            "  \"failed\": 1,\n"
            "  \"generator_errors\": [],\n"
            "  \"failures\": [\n"
            "    {\"trial\": 1, \"property\": \"pipeline-verifies\", "
            "\"kind\": \"verify:k\", "
            "\"message\": \"said \\\"no\\\"\\nthen\\tstopped\", "
            "\"original_rows\": 12, \"rows\": 3, \"attributes\": 1, "
            "\"repro\": \"kanon-repro 1\\n\"}\n"
            "  ]\n"
            "}\n");
}

// Concurrent runs of one sharded trial (campaign workers, or two test
// binaries under ctest -j with the same seed) each get a private scratch
// directory, so one run's cleanup cannot delete another's shard journal.
TEST(PropertyTest, ConcurrentShardedCompositionRunsDoNotCollide) {
  const Property* property = FindProperty("sharded-composition");
  ASSERT_NE(property, nullptr);
  GeneratorOptions options;
  Result<TrialData> trial = MakeTrial(4, 3, options);
  ASSERT_TRUE(trial.ok()) << trial.status().ToString();
  trial->config.methods = {AnonymizationMethod::kAgglomerative};
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 8;
  std::vector<PropertyResult> results(kThreads * kRunsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        results[t * kRunsPerThread + i] = property->run(*trial);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const PropertyResult& result : results) {
    EXPECT_TRUE(result.passed) << result.kind << ": " << result.message;
  }
}

TEST(CampaignTest, FailpointCampaignWritesShrunkReproducers) {
  failpoint::Arm("forest.closure", 0);
  CampaignOptions options;
  options.seed = 4;
  options.trials = 6;
  options.threads = 1;
  options.props = "pipeline-verifies";
  Result<CampaignReport> report = RunCampaign(options);
  failpoint::Disarm("forest.closure");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->failures.empty());
  for (const CampaignFailure& failure : report->failures) {
    EXPECT_EQ(failure.kind, "pipeline-error:Internal:forest");
    EXPECT_LE(failure.rows, 10u);
    Result<ReproCase> repro = ParseRepro(failure.repro);
    ASSERT_TRUE(repro.ok()) << repro.status().ToString();
    Result<ReproOutcome> outcome = ReplayRepro(*repro);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->matched) << outcome->Describe(*repro);
  }
}

}  // namespace
}  // namespace check
}  // namespace kanon
