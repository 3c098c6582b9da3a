#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/datasets/art.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

TEST(KKTest, RejectsBadArgs) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 5, 1);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  EXPECT_FALSE(K1NearestNeighbors(d, loss, 0).ok());
  EXPECT_FALSE(K1NearestNeighbors(d, loss, 6).ok());
  EXPECT_FALSE(K1GreedyExpansion(d, loss, 0).ok());
  EXPECT_FALSE(K1GreedyExpansion(d, loss, 6).ok());
}

TEST(KKTest, NearestNeighborsIsK1Anonymous) {
  auto scheme = SmallScheme();
  for (size_t k : {2u, 4u}) {
    Dataset d = SmallRandomDataset(*scheme, 35, 2);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    GeneralizedTable t = Unwrap(K1NearestNeighbors(d, loss, k));
    EXPECT_TRUE(Unwrap(IsK1Anonymous(d, t, k))) << "k = " << k;
    for (size_t i = 0; i < d.num_rows(); ++i) {
      EXPECT_TRUE(t.ConsistentPair(d, i, i));
    }
  }
}

TEST(KKTest, GreedyExpansionIsK1Anonymous) {
  auto scheme = SmallScheme();
  for (size_t k : {2u, 4u, 7u}) {
    Dataset d = SmallRandomDataset(*scheme, 35, 3);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    GeneralizedTable t = Unwrap(K1GreedyExpansion(d, loss, k));
    EXPECT_TRUE(Unwrap(IsK1Anonymous(d, t, k))) << "k = " << k;
    for (size_t i = 0; i < d.num_rows(); ++i) {
      EXPECT_TRUE(t.ConsistentPair(d, i, i));
    }
  }
}

TEST(KKTest, K1TablesAreNotNecessarily1K) {
  // (k,1) alone is weak; on most data some record has fewer than k
  // consistent generalized records. We only check that the verifier can
  // tell the two notions apart on at least one seed.
  auto scheme = SmallScheme();
  bool found_gap = false;
  for (uint64_t seed = 0; seed < 5 && !found_gap; ++seed) {
    Dataset d = SmallRandomDataset(*scheme, 30, 20 + seed);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    GeneralizedTable t = Unwrap(K1GreedyExpansion(d, loss, 3));
    if (!Unwrap(Is1KAnonymous(d, t, 3))) found_gap = true;
  }
  EXPECT_TRUE(found_gap);
}

TEST(KKTest, Make1KAnonymousFixesDeficits) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 30, 4);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  GeneralizedTable k1 = Unwrap(K1GreedyExpansion(d, loss, 3));
  GeneralizedTable kk = Unwrap(Make1KAnonymous(d, loss, 3, k1));
  EXPECT_TRUE(Unwrap(Is1KAnonymous(d, kk, 3)));
  EXPECT_TRUE(Unwrap(IsK1Anonymous(d, kk, 3)));
  EXPECT_TRUE(Unwrap(IsKKAnonymous(d, kk, 3)));
}

TEST(KKTest, Make1KOnlyCoarsens) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 25, 5);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  GeneralizedTable k1 = Unwrap(K1GreedyExpansion(d, loss, 3));
  GeneralizedTable kk = Unwrap(Make1KAnonymous(d, loss, 3, k1));
  EXPECT_TRUE(kk.RowwiseGeneralizes(k1));
}

TEST(KKTest, Make1KAnonymousIdempotentOnKAnonymousInput) {
  // A k-anonymized table is already (1,k); Algorithm 5 must not change it.
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 30, 6);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  GeneralizedTable t = Unwrap(AgglomerativeKAnonymize(d, loss, 3, {}));
  const double before = loss.TableLoss(t);
  GeneralizedTable after = Unwrap(Make1KAnonymous(d, loss, 3, t));
  EXPECT_DOUBLE_EQ(loss.TableLoss(after), before);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(after.record(i), t.record(i));
  }
}

TEST(KKTest, KKAnonymizeBothVariants) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 40, 7);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  for (K1Algorithm algo :
       {K1Algorithm::kNearestNeighbors, K1Algorithm::kGreedyExpansion}) {
    GeneralizedTable t = Unwrap(KKAnonymize(d, loss, 4, algo));
    EXPECT_TRUE(Unwrap(IsKKAnonymous(d, t, 4)));
  }
}

TEST(KKTest, KKBeatsKAnonymityOnUtility) {
  // The relaxation must pay off: (k,k) information loss <= the basic
  // k-anonymization loss on aggregate (Proposition: A^k ⊂ A^{(k,k)}).
  auto scheme = SmallScheme();
  double kk_total = 0.0;
  double kanon_total = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Dataset d = SmallRandomDataset(*scheme, 50, 30 + seed);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    GeneralizedTable kk =
        Unwrap(KKAnonymize(d, loss, 5, K1Algorithm::kGreedyExpansion));
    AgglomerativeOptions options;
    options.distance = DistanceFunction::kLogWeighted;
    GeneralizedTable ka = Unwrap(AgglomerativeKAnonymize(d, loss, 5, options));
    kk_total += loss.TableLoss(kk);
    kanon_total += loss.TableLoss(ka);
  }
  EXPECT_LE(kk_total, kanon_total * 1.02);
}

TEST(KKTest, GreedyBeatsNearestOnAggregate) {
  // The paper: Algorithm 4 + 5 consistently beats Algorithm 3 + 5.
  auto scheme = SmallScheme();
  double nn_total = 0.0;
  double greedy_total = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Dataset d = SmallRandomDataset(*scheme, 40, 40 + seed);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    nn_total += loss.TableLoss(
        Unwrap(KKAnonymize(d, loss, 4, K1Algorithm::kNearestNeighbors)));
    greedy_total += loss.TableLoss(
        Unwrap(KKAnonymize(d, loss, 4, K1Algorithm::kGreedyExpansion)));
  }
  EXPECT_LE(greedy_total, nn_total * 1.05);
}

TEST(KKTest, KEqualsOneIsIdentity) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 10, 8);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  GeneralizedTable t =
      Unwrap(KKAnonymize(d, loss, 1, K1Algorithm::kGreedyExpansion));
  EXPECT_DOUBLE_EQ(loss.TableLoss(t), 0.0);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(t.record(i), scheme->Identity(d.row(i)));
  }
}

// Algorithm 5 as a plain double loop: for each record, test every row with
// ConsistentPair, price every inconsistent row, partial_sort the prices and
// upgrade the cheapest. The reference Make1KAnonymous must replay exactly.
GeneralizedTable ScalarRepair(const Dataset& d, const PrecomputedLoss& loss,
                              size_t k, GeneralizedTable table,
                              size_t* upgrade_steps) {
  const GeneralizationScheme& scheme = loss.scheme();
  const size_t n = d.num_rows();
  const size_t r = d.num_attributes();
  std::vector<std::pair<double, uint32_t>> candidates;
  for (uint32_t i = 0; i < n; ++i) {
    const RowView record = d.row_view(i);
    size_t consistent = 0;
    candidates.clear();
    for (uint32_t t = 0; t < n; ++t) {
      if (table.ConsistentPair(d, i, t)) {
        ++consistent;
        continue;
      }
      double delta = 0.0;
      for (size_t j = 0; j < r; ++j) {
        const SetId current = table.at(t, j);
        const SetId joined = scheme.hierarchy(j).JoinValue(current, record[j]);
        delta += loss.EntryCost(j, joined) - loss.EntryCost(j, current);
      }
      candidates.emplace_back(delta / static_cast<double>(r), t);
    }
    if (consistent >= k) continue;
    const size_t deficit = k - consistent;
    *upgrade_steps += deficit;
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<ptrdiff_t>(deficit),
                      candidates.end());
    for (size_t t = 0; t < deficit; ++t) {
      table.GeneralizeToCover(candidates[t].second, record);
    }
  }
  return table;
}

TEST(KKTest, Make1KReplaysScalarRepairExactly) {
  auto small = SmallScheme();
  Workload art = Unwrap(MakeArtWorkload(70, 11));
  const std::pair<Dataset, std::shared_ptr<const GeneralizationScheme>>
      inputs[] = {{SmallRandomDataset(*small, 40, 12), small},
                  {art.dataset, art.scheme}};
  size_t total_steps = 0;
  for (const auto& [d, scheme] : inputs) {
    const size_t n = d.num_rows();
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    for (K1Algorithm algo :
         {K1Algorithm::kNearestNeighbors, K1Algorithm::kGreedyExpansion}) {
      for (size_t k : {size_t{1}, size_t{2}, size_t{10}, n}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     (algo == K1Algorithm::kGreedyExpansion ? " greedy"
                                                            : " nn"));
        GeneralizedTable k1 =
            Unwrap(algo == K1Algorithm::kGreedyExpansion
                       ? K1GreedyExpansion(d, loss, k)
                       : K1NearestNeighbors(d, loss, k));
        size_t expected_steps = 0;
        const GeneralizedTable expected =
            ScalarRepair(d, loss, k, k1, &expected_steps);
        EXPECT_TRUE(Unwrap(Make1KAnonymous(d, loss, k, k1)) == expected);
        // The pipeline's counters carry the repair's upgrade steps.
        EngineCounters counters;
        const GeneralizedTable kk = Unwrap(
            KKAnonymize(d, loss, k, algo, nullptr, 1, &counters));
        EXPECT_TRUE(kk == expected);
        EXPECT_EQ(counters.upgrade_steps, expected_steps);
        total_steps += expected_steps;
      }
    }
  }
  EXPECT_GT(total_steps, 0u);  // The replay did exercise upgrades.
}

TEST(KKTest, Make1KRequiresAlignedTable) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 10, 9);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  GeneralizedTable empty(scheme);
  EXPECT_FALSE(Make1KAnonymous(d, loss, 2, empty).ok());
}

}  // namespace
}  // namespace kanon
