#include <gtest/gtest.h>

#include <cmath>

#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/loss/precomputed_loss.h"
#include "kanon/loss/tree_measure.h"

namespace kanon {
namespace {

// One attribute with domain {0,1,2,3}, groups {0,1} and {2,3}.
Hierarchy MakeHierarchy() {
  Result<Hierarchy> h = Hierarchy::FromGroups(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

std::shared_ptr<const GeneralizationScheme> MakeScheme() {
  AttributeDomain a = AttributeDomain::IntegerRange("a", 0, 3);
  AttributeDomain b = AttributeDomain::IntegerRange("b", 0, 1);
  Result<Schema> schema = Schema::Create({a, b});
  Result<Hierarchy> ha = Hierarchy::FromGroups(4, {{0, 1}, {2, 3}});
  Result<Hierarchy> hb = Hierarchy::SuppressionOnly(2);
  Result<GeneralizationScheme> scheme =
      GeneralizationScheme::Create(schema.value(), {ha.value(), hb.value()});
  EXPECT_TRUE(scheme.ok());
  return std::make_shared<const GeneralizationScheme>(
      std::move(scheme).value());
}

// 4 rows: attribute a takes values 0,0,1,2; attribute b takes 0,0,1,1.
Dataset MakeData(const GeneralizationScheme& scheme) {
  Dataset d(scheme.schema());
  EXPECT_TRUE(d.AppendRow({0, 0}).ok());
  EXPECT_TRUE(d.AppendRow({0, 0}).ok());
  EXPECT_TRUE(d.AppendRow({1, 1}).ok());
  EXPECT_TRUE(d.AppendRow({2, 1}).ok());
  return d;
}

TEST(EntropyMeasureTest, SingletonCostsZero) {
  Hierarchy h = MakeHierarchy();
  EntropyMeasure em;
  const std::vector<uint32_t> counts = {2, 1, 1, 0};
  for (ValueCode v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(em.SetCost(h, counts, h.LeafOf(v)), 0.0);
  }
}

TEST(EntropyMeasureTest, MatchesConditionalEntropy) {
  Hierarchy h = MakeHierarchy();
  EntropyMeasure em;
  // Counts 2,1 within group {0,1}: H = -(2/3)log2(2/3) - (1/3)log2(1/3).
  const std::vector<uint32_t> counts = {2, 1, 1, 0};
  const SetId group01 = h.Join(h.LeafOf(0), h.LeafOf(1));
  const double expected =
      -(2.0 / 3) * std::log2(2.0 / 3) - (1.0 / 3) * std::log2(1.0 / 3);
  EXPECT_NEAR(em.SetCost(h, counts, group01), expected, 1e-12);
}

TEST(EntropyMeasureTest, ZeroCountValuesContributeNothing) {
  Hierarchy h = MakeHierarchy();
  EntropyMeasure em;
  // Group {2,3} has counts {1,0}: entropy 0 (value 3 never occurs).
  const std::vector<uint32_t> counts = {2, 1, 1, 0};
  const SetId group23 = h.Join(h.LeafOf(2), h.LeafOf(3));
  EXPECT_DOUBLE_EQ(em.SetCost(h, counts, group23), 0.0);
}

TEST(EntropyMeasureTest, FullSetIsAttributeEntropy) {
  Hierarchy h = MakeHierarchy();
  EntropyMeasure em;
  const std::vector<uint32_t> counts = {2, 1, 1, 0};
  // H(X) over p = (1/2, 1/4, 1/4) = 1.5 bits.
  EXPECT_NEAR(em.SetCost(h, counts, h.FullSetId()), 1.5, 1e-12);
}

TEST(EntropyMeasureTest, EmptySupportCostsZero) {
  Hierarchy h = MakeHierarchy();
  EntropyMeasure em;
  const std::vector<uint32_t> counts = {0, 0, 1, 1};
  const SetId group01 = h.Join(h.LeafOf(0), h.LeafOf(1));
  EXPECT_DOUBLE_EQ(em.SetCost(h, counts, group01), 0.0);
}

TEST(EntropyMeasureTest, UniformFullSetIsLog2m) {
  Hierarchy h = MakeHierarchy();
  EntropyMeasure em;
  const std::vector<uint32_t> counts = {5, 5, 5, 5};
  EXPECT_NEAR(em.SetCost(h, counts, h.FullSetId()), 2.0, 1e-12);
}

TEST(LmMeasureTest, MatchesFormula) {
  Hierarchy h = MakeHierarchy();
  LmMeasure lm;
  const std::vector<uint32_t> counts = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(lm.SetCost(h, counts, h.LeafOf(0)), 0.0);
  const SetId group01 = h.Join(h.LeafOf(0), h.LeafOf(1));
  EXPECT_DOUBLE_EQ(lm.SetCost(h, counts, group01), 1.0 / 3);
  EXPECT_DOUBLE_EQ(lm.SetCost(h, counts, h.FullSetId()), 1.0);
}

TEST(LmMeasureTest, SingleValueDomainCostsZero) {
  Result<Hierarchy> h = Hierarchy::SuppressionOnly(1);
  ASSERT_TRUE(h.ok());
  LmMeasure lm;
  EXPECT_DOUBLE_EQ(lm.SetCost(h.value(), {3}, h->FullSetId()), 0.0);
}

TEST(TreeMeasureTest, HeightsNormalized) {
  // Two-level hierarchy: singletons -> pairs -> full set.
  Hierarchy h = MakeHierarchy();
  TreeMeasure tm;
  const std::vector<uint32_t> counts = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(tm.SetCost(h, counts, h.LeafOf(0)), 0.0);
  const SetId group01 = h.Join(h.LeafOf(0), h.LeafOf(1));
  EXPECT_DOUBLE_EQ(tm.SetCost(h, counts, group01), 0.5);
  EXPECT_DOUBLE_EQ(tm.SetCost(h, counts, h.FullSetId()), 1.0);
}

TEST(TreeMeasureTest, SuppressionOnlyHasUnitHeight) {
  Result<Hierarchy> h = Hierarchy::SuppressionOnly(3);
  ASSERT_TRUE(h.ok());
  TreeMeasure tm;
  const std::vector<uint32_t> counts = {1, 1, 1};
  EXPECT_DOUBLE_EQ(tm.SetCost(h.value(), counts, h->LeafOf(1)), 0.0);
  EXPECT_DOUBLE_EQ(tm.SetCost(h.value(), counts, h->FullSetId()), 1.0);
}

TEST(PrecomputedLossTest, RecordCostAveragesAttributes) {
  auto scheme = MakeScheme();
  Dataset d = MakeData(*scheme);
  PrecomputedLoss loss(scheme, d, LmMeasure());

  GeneralizedRecord record = scheme->Identity({0, 0});
  EXPECT_DOUBLE_EQ(loss.RecordCost(record.data()), 0.0);
  // Generalize attribute a to the pair {0,1}: LM = (2-1)/(4-1) = 1/3;
  // attribute b untouched. Record cost = (1/3 + 0)/2.
  record[0] = scheme->hierarchy(0).Join(scheme->hierarchy(0).LeafOf(0),
                                        scheme->hierarchy(0).LeafOf(1));
  EXPECT_NEAR(loss.RecordCost(record.data()), (1.0 / 3) / 2, 1e-12);
}

TEST(PrecomputedLossTest, TableLossMatchesDefinition) {
  auto scheme = MakeScheme();
  Dataset d = MakeData(*scheme);
  PrecomputedLoss loss(scheme, d, LmMeasure());

  GeneralizedTable table = GeneralizedTable::Identity(scheme, d);
  EXPECT_DOUBLE_EQ(loss.TableLoss(table), 0.0);

  // Suppress everything: LM cost 1 per entry -> Π = 1.
  for (size_t i = 0; i < table.num_rows(); ++i) {
    table.SetRecord(i, scheme->Suppressed());
  }
  EXPECT_DOUBLE_EQ(loss.TableLoss(table), 1.0);
}

TEST(PrecomputedLossTest, ClosureCostMatchesManualComputation) {
  auto scheme = MakeScheme();
  Dataset d = MakeData(*scheme);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  // Rows 0,1 are identical -> closure is the identity record, cost 0.
  EXPECT_DOUBLE_EQ(loss.ClosureCost(d, {0, 1}), 0.0);
  // Rows 0,2: a-closure {0,1} (1/3), b-closure {0,1} = full (1).
  EXPECT_NEAR(loss.ClosureCost(d, {0, 2}), (1.0 / 3 + 1.0) / 2, 1e-12);
}

TEST(PrecomputedLossTest, EntropyUsesDatasetDistribution) {
  auto scheme = MakeScheme();
  Dataset d = MakeData(*scheme);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  // Attribute a counts: {2,1,1,0}. Group {0,1} entropy = H(2/3,1/3).
  const SetId group01 = scheme->hierarchy(0).Join(
      scheme->hierarchy(0).LeafOf(0), scheme->hierarchy(0).LeafOf(1));
  const double expected =
      -(2.0 / 3) * std::log2(2.0 / 3) - (1.0 / 3) * std::log2(1.0 / 3);
  EXPECT_NEAR(loss.EntryCost(0, group01), expected, 1e-12);
  EXPECT_EQ(loss.measure_name(), "EM");
}

TEST(PrecomputedLossTest, EmptyTableLossIsZero) {
  auto scheme = MakeScheme();
  Dataset d = MakeData(*scheme);
  PrecomputedLoss loss(scheme, d, LmMeasure());
  GeneralizedTable empty(scheme);
  EXPECT_DOUBLE_EQ(loss.TableLoss(empty), 0.0);
}

}  // namespace
}  // namespace kanon
