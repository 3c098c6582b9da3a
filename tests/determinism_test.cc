// The parallel determinism contract: every pipeline, under every loss
// measure, must publish a byte-identical table at every --threads value
// (chunk geometry is a pure function of n; per-chunk results merge in chunk
// order with serial tie-breaking — see docs/parallelism.md). Also covers
// the parallel construction paths (hierarchy join tables, precomputed
// costs) and execution-control stops landing mid-parallel-sweep.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/check/campaign.h"
#include "kanon/common/run_context.h"
#include "kanon/datasets/art.h"
#include "kanon/generalization/hierarchy.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::kThreadSanitizer;
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

TEST(DeterminismTest, EveryPipelineMatchesSingleThreadedByteForByte) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 150, 20250807);
  const std::vector<std::unique_ptr<LossMeasure>> measures = [] {
    std::vector<std::unique_ptr<LossMeasure>> m;
    m.push_back(std::make_unique<EntropyMeasure>());
    m.push_back(std::make_unique<LmMeasure>());
    return m;
  }();
  for (const auto& measure : measures) {
    const PrecomputedLoss loss(scheme, d, *measure);
    for (AnonymizationMethod method : kAllMethods) {
      AnonymizerConfig config;
      config.k = 5;
      config.method = method;
      config.num_threads = 1;
      const AnonymizationResult reference =
          Unwrap(Anonymize(d, loss, config));
      for (int threads : {2, 4}) {
        config.num_threads = threads;
        const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
        EXPECT_TRUE(result.table == reference.table)
            << AnonymizationMethodName(method) << " under "
            << measure->name() << " diverged at --threads " << threads;
        EXPECT_DOUBLE_EQ(result.loss, reference.loss)
            << AnonymizationMethodName(method);
      }
    }
  }
}

// Large enough that the engine's O(r) sweeps (repair, rescan, closures)
// split into several chunks and really run on the pool; the 150-row tables
// above always run them as one inline chunk. Thread-sanitizer builds use
// the smallest size that still gives four chunks.
constexpr size_t kChunkedEngineRows = kThreadSanitizer ? 2100 : 3000;
static_assert(kChunkedEngineRows >
              4 * internal::kAgglomerativeCheapSweepGrain);

TEST(DeterminismTest, ChunkedAgglomerativeMatchesSingleThreadedAtAnyDistance) {
  const Workload art = Unwrap(MakeArtWorkload(kChunkedEngineRows, 3));
  const PrecomputedLoss loss(art.scheme, art.dataset, EntropyMeasure());
  for (AnonymizationMethod method :
       {AnonymizationMethod::kAgglomerative,
        AnonymizationMethod::kModifiedAgglomerative}) {
    for (DistanceFunction distance :
         {DistanceFunction::kWeighted, DistanceFunction::kPlain,
          DistanceFunction::kLogWeighted, DistanceFunction::kRatio,
          DistanceFunction::kNergizClifton}) {
      SCOPED_TRACE(::testing::Message()
                   << AnonymizationMethodName(method) << " distance "
                   << DistanceShortName(distance));
      AnonymizerConfig config;
      config.k = 10;
      config.method = method;
      config.distance = distance;
      config.num_threads = 1;
      const AnonymizationResult reference =
          Unwrap(Anonymize(art.dataset, loss, config));
      for (int threads : {2, 4}) {
        config.num_threads = threads;
        const AnonymizationResult result =
            Unwrap(Anonymize(art.dataset, loss, config));
        EXPECT_TRUE(result.table == reference.table)
            << "diverged at --threads " << threads;
        EXPECT_EQ(result.loss, reference.loss);
        EXPECT_EQ(result.counters.merges, reference.counters.merges);
        EXPECT_EQ(result.counters.rescans, reference.counters.rescans);
        EXPECT_EQ(result.counters.heap_rebuilds,
                  reference.counters.heap_rebuilds);
        EXPECT_EQ(result.counters.parallel_chunks,
                  reference.counters.parallel_chunks);
      }
    }
  }
}

TEST(DeterminismTest, ParallelAgglomerativeMergesAreExact) {
  // Every merge of a 4-thread run is checked against an exhaustive scan of
  // all alive pairs (check_exact_merges aborts on a non-minimal merge). The
  // scan is quadratic per merge, so sanitizer builds halve the table.
  const size_t n = kThreadSanitizer ? 200 : 400;
  const Workload art = Unwrap(MakeArtWorkload(n, 5));
  const PrecomputedLoss loss(art.scheme, art.dataset, EntropyMeasure());
  for (bool modified : {false, true}) {
    AgglomerativeOptions options;
    options.distance = DistanceFunction::kLogWeighted;
    options.modified = modified;
    options.check_exact_merges = true;
    options.num_threads = 4;
    const Clustering c =
        Unwrap(AgglomerativeCluster(art.dataset, loss, 5, options));
    EXPECT_TRUE(c.IsPartitionOf(n));
    EXPECT_GE(c.min_cluster_size(), 5u);
  }
}

TEST(DeterminismTest, RepeatedParallelRunsAreIdentical) {
  // Same thread count twice: guards against scheduling-order leaks (a racy
  // merge would sometimes agree with serial and sometimes not).
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 150, 7);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 4;
  config.method = AnonymizationMethod::kAgglomerative;
  config.num_threads = 4;
  const AnonymizationResult first = Unwrap(Anonymize(d, loss, config));
  for (int run = 0; run < 3; ++run) {
    const AnonymizationResult again = Unwrap(Anonymize(d, loss, config));
    ASSERT_TRUE(again.table == first.table) << "run " << run;
  }
}

TEST(DeterminismTest, HierarchyJoinTableIdenticalAcrossThreadCounts) {
  // 32 values in nested bands of 2/4/8: a few hundred permissible sets,
  // enough for real multi-chunk join-table sweeps.
  const Hierarchy reference = Unwrap(Hierarchy::Intervals(32, {2, 4, 8}));
  // Intervals() goes through Build with the default thread count; to pin a
  // specific count, rebuild from the reference's own sets.
  std::vector<ValueSet> sets;
  for (SetId s = 0; s < reference.num_sets(); ++s) {
    sets.push_back(reference.set(s));
  }
  for (int threads : {1, 2, 4}) {
    const Hierarchy rebuilt = Unwrap(Hierarchy::Build(32, sets, threads));
    ASSERT_EQ(rebuilt.num_sets(), reference.num_sets());
    for (SetId a = 0; a < reference.num_sets(); ++a) {
      for (SetId b = 0; b < reference.num_sets(); ++b) {
        ASSERT_EQ(rebuilt.Join(a, b), reference.Join(a, b))
            << "threads=" << threads << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(DeterminismTest, PrecomputedCostsIdenticalAcrossThreadCounts) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 200, 11);
  const PrecomputedLoss reference(scheme, d, EntropyMeasure(), 1);
  for (int threads : {2, 4}) {
    const PrecomputedLoss parallel(scheme, d, EntropyMeasure(), threads);
    for (size_t j = 0; j < scheme->num_attributes(); ++j) {
      for (SetId s = 0; s < scheme->hierarchy(j).num_sets(); ++s) {
        ASSERT_EQ(parallel.EntryCost(j, s), reference.EntryCost(j, s))
            << "threads=" << threads << " attr=" << j << " set=" << s;
      }
    }
  }
}

// Execution controls under parallelism: a deadline or budget landing in the
// middle of a multi-threaded sweep must still wind down to a valid table.
// Degraded runs are exempt from the determinism contract (which chunks ran
// depends on timing) but never from validity.
TEST(DeterminismTest, DeadlineMidParallelSweepStillYieldsValidTable) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 300, 13);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  const size_t k = 5;
  const struct {
    AnonymizationMethod method;
    AnonymityNotion notion;
  } cases[] = {
      {AnonymizationMethod::kAgglomerative, AnonymityNotion::kKAnonymity},
      {AnonymizationMethod::kKKGreedyExpansion, AnonymityNotion::kKK},
      {AnonymizationMethod::kKKNearestNeighbors, AnonymityNotion::kKK},
  };
  // Deadlines from "already expired" to "expires mid-run": some land inside
  // a parallel sweep, where workers observe the stop between chunks.
  for (double deadline : {0.0, 1e-5, 1e-4, 1e-3, 1e-2}) {
    for (const auto& c : cases) {
      RunContext ctx;
      ctx.ArmDeadline(deadline);
      AnonymizerConfig config;
      config.k = k;
      config.method = c.method;
      config.num_threads = 4;
      config.run_context = &ctx;
      const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
      EXPECT_TRUE(Unwrap(SatisfiesNotion(c.notion, d, result.table, k)))
          << AnonymizationMethodName(c.method) << " with deadline "
          << deadline << " violated " << AnonymityNotionName(c.notion);
    }
  }
}

TEST(DeterminismTest, StepBudgetUnderThreadsStillYieldsValidTable) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 200, 17);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  const size_t k = 4;
  for (size_t budget : {1u, 2u, 3u, 5u, 9u, 33u, 129u}) {
    for (AnonymizationMethod method : kAllMethods) {
      RunContext ctx;
      ctx.set_step_budget(budget);
      AnonymizerConfig config;
      config.k = k;
      config.method = method;
      config.num_threads = 4;
      config.run_context = &ctx;
      const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
      EXPECT_EQ(result.table.num_rows(), d.num_rows())
          << AnonymizationMethodName(method) << " budget " << budget;
    }
  }
}

// The determinism contract extends to the checking subsystem: a campaign's
// JSON report is a pure function of (seed, trials, props) — replaying it
// with the trial fan-out spread over 1, 2, and 4 worker threads must yield
// the identical document, because trial i is always Rng(seed).Fork(i) and
// results are assembled in trial order.
TEST(DeterminismTest, CampaignReportIdenticalAcrossThreadCounts) {
  check::CampaignOptions options;
  options.seed = 4;
  options.trials = 40;
  options.threads = 1;
  const check::CampaignReport baseline =
      Unwrap(check::RunCampaign(options));
  const std::string baseline_json = baseline.ToJson();
  EXPECT_EQ(baseline.evaluations,
            options.trials * check::PropertyCatalog().size());

  for (int threads : {2, 4}) {
    options.threads = threads;
    const check::CampaignReport report =
        Unwrap(check::RunCampaign(options));
    EXPECT_EQ(report.ToJson(), baseline_json) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace kanon
