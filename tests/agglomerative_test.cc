#include <gtest/gtest.h>

#include <algorithm>

#include "kanon/algo/agglomerative.h"
#include "kanon/anonymity/verify.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::DuplicateHeavyArt;
using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;
using testing::kThreadSanitizer;

TEST(AgglomerativeTest, RejectsBadK) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 5, 1);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  AgglomerativeOptions options;
  EXPECT_FALSE(AgglomerativeCluster(d, loss, 0, options).ok());
  EXPECT_FALSE(AgglomerativeCluster(d, loss, 6, options).ok());
}

TEST(AgglomerativeTest, KOneIsIdentity) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 8, 2);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  Clustering c = Unwrap(AgglomerativeCluster(d, loss, 1, {}));
  EXPECT_EQ(c.num_clusters(), 8u);
  EXPECT_TRUE(c.IsPartitionOf(8));
  EXPECT_EQ(c.min_cluster_size(), 1u);
}

TEST(AgglomerativeTest, KEqualsNSingleCluster) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 6, 3);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  Clustering c = Unwrap(AgglomerativeCluster(d, loss, 6, {}));
  EXPECT_EQ(c.num_clusters(), 1u);
  EXPECT_EQ(c.clusters[0].size(), 6u);
}

TEST(AgglomerativeTest, ProducesValidPartitionWithMinSizeK) {
  auto scheme = SmallScheme();
  for (size_t k : {2u, 3u, 5u}) {
    for (uint64_t seed : {10u, 11u}) {
      Dataset d = SmallRandomDataset(*scheme, 40, seed);
      PrecomputedLoss loss(scheme, d, EntropyMeasure());
      Clustering c = Unwrap(AgglomerativeCluster(d, loss, k, {}));
      EXPECT_TRUE(c.IsPartitionOf(40));
      EXPECT_GE(c.min_cluster_size(), k);
    }
  }
}

TEST(AgglomerativeTest, BasicClusterSizesBounded) {
  // Basic Algorithm 1 ripens clusters between k and 2k-2 records (plus
  // leftover absorption).
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 60, 4);
  const size_t k = 4;
  PrecomputedLoss loss(scheme, d, LmMeasure());
  Clustering c = Unwrap(AgglomerativeCluster(d, loss, k, {}));
  for (const auto& cluster : c.clusters) {
    EXPECT_GE(cluster.size(), k);
    // 2k-2 from merging two (k-1)-clusters, plus at most k-1 leftovers.
    EXPECT_LE(cluster.size(), 3 * k - 3);
  }
}

TEST(AgglomerativeTest, TableIsKAnonymous) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 50, 6);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  for (DistanceFunction f : kAllDistanceFunctions) {
    AgglomerativeOptions options;
    options.distance = f;
    GeneralizedTable t = Unwrap(AgglomerativeKAnonymize(d, loss, 5, options));
    EXPECT_TRUE(Unwrap(IsKAnonymous(t, 5))) << DistanceFunctionName(f);
    // Every record is generalized from its original.
    for (size_t i = 0; i < d.num_rows(); ++i) {
      EXPECT_TRUE(t.ConsistentPair(d, i, i));
    }
  }
}

TEST(AgglomerativeTest, ModifiedProducesExactlyKClusters) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 47, 7);
  const size_t k = 5;
  PrecomputedLoss loss(scheme, d, LmMeasure());
  AgglomerativeOptions options;
  options.modified = true;
  Clustering c = Unwrap(AgglomerativeCluster(d, loss, k, options));
  EXPECT_TRUE(c.IsPartitionOf(47));
  // All clusters have exactly k records except those that absorbed the
  // leftover (< k) records at the end.
  size_t oversized = 0;
  size_t extra = 0;
  for (const auto& cluster : c.clusters) {
    EXPECT_GE(cluster.size(), k);
    if (cluster.size() > k) {
      ++oversized;
      extra += cluster.size() - k;
    }
  }
  EXPECT_LE(extra, k - 1);      // Only leftovers create oversized clusters.
  EXPECT_LE(oversized, k - 1);
}

TEST(AgglomerativeTest, ModifiedNotWorseThanBasicOnAverage) {
  // The paper reports the modified variant usually reduces the loss. On
  // small random data we only require it not to be dramatically worse on
  // aggregate.
  auto scheme = SmallScheme();
  double basic_total = 0.0;
  double modified_total = 0.0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Dataset d = SmallRandomDataset(*scheme, 45, 100 + seed);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    AgglomerativeOptions basic;
    basic.distance = DistanceFunction::kWeighted;
    AgglomerativeOptions modified = basic;
    modified.modified = true;
    basic_total +=
        loss.TableLoss(Unwrap(AgglomerativeKAnonymize(d, loss, 4, basic)));
    modified_total +=
        loss.TableLoss(Unwrap(AgglomerativeKAnonymize(d, loss, 4, modified)));
  }
  EXPECT_LE(modified_total, basic_total * 1.10);
}

TEST(AgglomerativeTest, DeterministicAcrossRuns) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 30, 8);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  AgglomerativeOptions options;
  Clustering a = Unwrap(AgglomerativeCluster(d, loss, 3, options));
  Clustering b = Unwrap(AgglomerativeCluster(d, loss, 3, options));
  EXPECT_EQ(a.clusters, b.clusters);
}

TEST(AgglomerativeTest, IdenticalRecordsClusterTogetherForK2) {
  // 10 copies of one record and 10 of another, k=2: clusters ripen as soon
  // as two identical records merge, so the zero-loss clustering is found.
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(d.AppendRow({7, 1}).ok());
  PrecomputedLoss loss(scheme, d, LmMeasure());
  GeneralizedTable t = Unwrap(AgglomerativeKAnonymize(d, loss, 2, {}));
  EXPECT_DOUBLE_EQ(loss.TableLoss(t), 0.0);
  EXPECT_TRUE(Unwrap(IsKAnonymous(t, 2)));
}

TEST(AgglomerativeTest, TailClusterArtifactStaysBounded) {
  // With k=5 the basic Algorithm 1 can be forced to merge the last two
  // undersized clusters across groups (the paper's algorithm behaves the
  // same way): the result is valid and the damage is confined to one
  // cluster of at most 2k-2 records.
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(d.AppendRow({7, 1}).ok());
  PrecomputedLoss loss(scheme, d, LmMeasure());
  GeneralizedTable t = Unwrap(AgglomerativeKAnonymize(d, loss, 5, {}));
  EXPECT_TRUE(Unwrap(IsKAnonymous(t, 5)));
  // At most 2k-2 = 8 of the 20 rows pay full suppression cost 1.
  EXPECT_LE(loss.TableLoss(t), 8.0 / 20.0 + 1e-12);
}

TEST(AgglomerativeTest, LossGrowsWithK) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 60, 9);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  double previous = -1.0;
  for (size_t k : {2u, 5u, 10u, 20u}) {
    GeneralizedTable t = Unwrap(AgglomerativeKAnonymize(d, loss, k, {}));
    const double pi = loss.TableLoss(t);
    // Heuristic output, so allow a sliver of non-monotonicity.
    EXPECT_GE(pi, previous - 0.02) << "k = " << k;
    previous = pi;
  }
}

TEST(AgglomerativeTest, RatioDistanceSurvivesIdenticalRecordsWithZeroEpsilon) {
  // Regression: identical singleton records have zero-cost closures, so
  // dist4's denominator d(A)+d(B)+ε was exactly 0 with ε = 0 and the NaN
  // poisoned the merge heap (comparisons with NaN are all false, so the
  // heap order fell apart). The guard makes such merges distance 0.
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(d.AppendRow({7, 1}).ok());
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  AgglomerativeOptions options;
  options.distance = DistanceFunction::kRatio;
  options.params.epsilon = 0.0;
  options.check_exact_merges = true;
  Clustering c = Unwrap(AgglomerativeCluster(d, loss, 3, options));
  EXPECT_TRUE(c.IsPartitionOf(12));
  EXPECT_GE(c.min_cluster_size(), 3u);
  // Identical records are at distance 0 from each other and far from the
  // opposite block, so no cluster may mix the two blocks.
  GeneralizedTable t = Unwrap(AgglomerativeKAnonymize(d, loss, 3, options));
  EXPECT_LE(loss.TableLoss(t), 1e-12);
}

// With check_exact_merges on, the engine checks every two-best that does
// not come from a full scan against one: each row's distinct-tuple init and
// each rescan answered from a near-list; and every merge against the
// smallest key (d1, x, c1) over the alive clusters, recomputed by brute
// force. Tuple-mates tie at every distance on this input, so the (d, id)
// order is exercised throughout; the checked runs must also publish what
// unchecked runs do.
TEST(AgglomerativeTest, NearListAnswersAndTupleInitMatchFullScans) {
  const Workload dup = kThreadSanitizer ? DuplicateHeavyArt(150, 60, 20080407)
                                        : DuplicateHeavyArt(300, 120, 20080407);
  const PrecomputedLoss loss(dup.scheme, dup.dataset, EntropyMeasure());
  size_t full_rescans = 0;
  for (bool modified : {false, true}) {
    for (DistanceFunction distance :
         {DistanceFunction::kWeighted, DistanceFunction::kPlain,
          DistanceFunction::kLogWeighted, DistanceFunction::kRatio,
          DistanceFunction::kNergizClifton}) {
      SCOPED_TRACE(::testing::Message() << "modified=" << modified
                                        << " distance "
                                        << DistanceShortName(distance));
      AgglomerativeOptions options;
      options.modified = modified;
      options.distance = distance;
      options.num_threads = 2;
      const Clustering plain =
          Unwrap(AgglomerativeCluster(dup.dataset, loss, 6, options));
      EngineCounters counters;
      options.counters = &counters;
      options.check_exact_merges = true;
      const Clustering checked =
          Unwrap(AgglomerativeCluster(dup.dataset, loss, 6, options));
      EXPECT_EQ(checked.clusters, plain.clusters);
      full_rescans += counters.rescans;
    }
  }
  // Some lists cannot answer and fall back to the full scan.
  EXPECT_GT(full_rescans, 0u);
}

TEST(LeaveOneOutClosuresTest, MatchesNaiveRecomputation) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 30, 21);
  for (size_t len : {2u, 3u, 7u, 18u}) {
    std::vector<uint32_t> rows;
    for (uint32_t i = 0; i < len; ++i) rows.push_back(i * 30 / len % 30);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    if (rows.size() < 2) continue;
    const size_t r = scheme->num_attributes();
    std::vector<SetId> fast = {7};  // Stale contents are overwritten.
    LeaveOneOutClosures(d, *scheme, rows, &fast);
    ASSERT_EQ(fast.size(), rows.size() * r);
    for (size_t p = 0; p < rows.size(); ++p) {
      std::vector<uint32_t> rest = rows;
      rest.erase(rest.begin() + static_cast<ptrdiff_t>(p));
      const GeneralizedRecord naive = scheme->ClosureOfRows(d, rest);
      EXPECT_EQ(GeneralizedRecord(fast.begin() + p * r,
                                  fast.begin() + (p + 1) * r),
                naive)
          << "len=" << rows.size() << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace kanon
