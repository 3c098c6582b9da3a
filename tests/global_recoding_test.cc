#include <gtest/gtest.h>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/global_recoding.h"
#include "kanon/anonymity/verify.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

TEST(GlobalRecodingTest, LevelStructure) {
  auto scheme = SmallScheme();
  const Hierarchy& zip = scheme->hierarchy(0);
  EXPECT_EQ(zip.SizeOf(LevelAncestor(zip, 3, 0)), 1u);
  EXPECT_EQ(zip.SizeOf(LevelAncestor(zip, 3, 1)), 2u);
  EXPECT_EQ(zip.SizeOf(LevelAncestor(zip, 3, 2)), 4u);
  EXPECT_EQ(zip.SizeOf(LevelAncestor(zip, 3, 3)), 8u);
  // Clamped beyond the top.
  EXPECT_EQ(zip.SizeOf(LevelAncestor(zip, 3, 9)), 8u);
}

TEST(GlobalRecodingTest, RejectsBadArgs) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 5, 1);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  EXPECT_FALSE(GlobalRecodingKAnonymize(d, loss, 0).ok());
  EXPECT_FALSE(GlobalRecodingKAnonymize(d, loss, 6).ok());
}

TEST(GlobalRecodingTest, RejectsNonLaminarHierarchy) {
  AttributeDomain a = AttributeDomain::IntegerRange("v", 0, 2);
  Schema schema = Unwrap(Schema::Create({a}));
  Hierarchy h = Unwrap(Hierarchy::FromGroups(3, {{0, 1}, {1, 2}}));
  auto scheme = std::make_shared<const GeneralizationScheme>(
      Unwrap(GeneralizationScheme::Create(schema, {h})));
  Dataset d(scheme->schema());
  ASSERT_TRUE(d.AppendRow({0}).ok());
  ASSERT_TRUE(d.AppendRow({1}).ok());
  PrecomputedLoss loss(scheme, d, LmMeasure());
  Result<GlobalRecodingResult> r = GlobalRecodingKAnonymize(d, loss, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GlobalRecodingTest, OutputIsKAnonymousAndUniform) {
  auto scheme = SmallScheme();
  for (uint64_t seed : {1u, 2u, 3u}) {
    Dataset d = SmallRandomDataset(*scheme, 40, seed);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    for (size_t k : {2u, 5u}) {
      GlobalRecodingResult result =
          Unwrap(GlobalRecodingKAnonymize(d, loss, k));
      EXPECT_TRUE(Unwrap(IsKAnonymous(result.table, k))) << "seed " << seed;
      // Uniform recoding: two rows sharing a value share its subset.
      for (size_t j = 0; j < d.num_attributes(); ++j) {
        for (size_t i1 = 0; i1 < d.num_rows(); ++i1) {
          for (size_t i2 = i1 + 1; i2 < d.num_rows(); ++i2) {
            if (d.at(i1, j) == d.at(i2, j)) {
              ASSERT_EQ(result.table.at(i1, j), result.table.at(i2, j));
            }
          }
        }
      }
      ASSERT_EQ(result.levels.size(), 2u);
    }
  }
}

TEST(GlobalRecodingTest, IdentityWhenAlreadyAnonymous) {
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(d.AppendRow({2, 1}).ok());
  PrecomputedLoss loss(scheme, d, LmMeasure());
  GlobalRecodingResult result = Unwrap(GlobalRecodingKAnonymize(d, loss, 3));
  EXPECT_DOUBLE_EQ(loss.TableLoss(result.table), 0.0);
  EXPECT_EQ(result.levels, (std::vector<uint32_t>{0, 0}));
}

TEST(GlobalRecodingTest, LocalRecodingWinsOnUtility) {
  // The Section III claim, quantified: the local-recoding agglomerative
  // algorithm never loses to full-domain recoding on aggregate.
  auto scheme = SmallScheme();
  double local_total = 0.0;
  double global_total = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Dataset d = SmallRandomDataset(*scheme, 50, 80 + seed);
    PrecomputedLoss loss(scheme, d, EntropyMeasure());
    local_total +=
        loss.TableLoss(Unwrap(AgglomerativeKAnonymize(d, loss, 4, {})));
    global_total +=
        loss.TableLoss(Unwrap(GlobalRecodingKAnonymize(d, loss, 4)).table);
  }
  EXPECT_LE(local_total, global_total + 1e-9);
}

}  // namespace
}  // namespace kanon
