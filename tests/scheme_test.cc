#include <gtest/gtest.h>

#include "kanon/generalization/generalized_table.h"
#include "kanon/generalization/scheme.h"

namespace kanon {
namespace {

// Two attributes: gender {M,F} (suppression only) and age-band 0..3 with
// groups {0,1} and {2,3}.
std::shared_ptr<const GeneralizationScheme> MakeTestScheme() {
  Result<AttributeDomain> gender = AttributeDomain::Create("gender", {"M", "F"});
  AttributeDomain age = AttributeDomain::IntegerRange("age", 0, 3);
  Result<Schema> schema = Schema::Create({gender.value(), age});
  Result<Hierarchy> h0 = Hierarchy::SuppressionOnly(2);
  Result<Hierarchy> h1 = Hierarchy::FromGroups(4, {{0, 1}, {2, 3}});
  Result<GeneralizationScheme> scheme = GeneralizationScheme::Create(
      schema.value(), {h0.value(), h1.value()});
  EXPECT_TRUE(scheme.ok()) << scheme.status().ToString();
  return std::make_shared<const GeneralizationScheme>(
      std::move(scheme).value());
}

Dataset MakeTestDataset(const GeneralizationScheme& scheme) {
  Dataset d(scheme.schema());
  EXPECT_TRUE(d.AppendRow({0, 0}).ok());
  EXPECT_TRUE(d.AppendRow({0, 1}).ok());
  EXPECT_TRUE(d.AppendRow({1, 3}).ok());
  return d;
}

TEST(SchemeTest, CreateValidatesArity) {
  Result<AttributeDomain> g = AttributeDomain::Create("g", {"a", "b"});
  Result<Schema> schema = Schema::Create({g.value()});
  EXPECT_FALSE(GeneralizationScheme::Create(schema.value(), {}).ok());
  Result<Hierarchy> wrong = Hierarchy::SuppressionOnly(3);
  EXPECT_FALSE(
      GeneralizationScheme::Create(schema.value(), {wrong.value()}).ok());
}

TEST(SchemeTest, IdentityAndSuppressed) {
  auto scheme = MakeTestScheme();
  const GeneralizedRecord id = scheme->Identity({1, 2});
  EXPECT_EQ(scheme->hierarchy(0).SizeOf(id[0]), 1u);
  EXPECT_TRUE(scheme->hierarchy(0).Contains(id[0], 1));
  EXPECT_TRUE(scheme->hierarchy(1).Contains(id[1], 2));
  const GeneralizedRecord sup = scheme->Suppressed();
  EXPECT_EQ(sup[0], scheme->hierarchy(0).FullSetId());
  EXPECT_EQ(sup[1], scheme->hierarchy(1).FullSetId());
}

TEST(SchemeTest, JoinRecords) {
  auto scheme = MakeTestScheme();
  const GeneralizedRecord a = scheme->Identity({0, 0});
  const GeneralizedRecord b = scheme->Identity({0, 1});
  const GeneralizedRecord j = scheme->JoinRecords(a, b);
  EXPECT_EQ(j[0], a[0]);                              // Same gender.
  EXPECT_EQ(scheme->hierarchy(1).SizeOf(j[1]), 2u);   // Band {0,1}.
}

TEST(SchemeTest, ClosureOfRows) {
  auto scheme = MakeTestScheme();
  Dataset d = MakeTestDataset(*scheme);
  const GeneralizedRecord c01 = scheme->ClosureOfRows(d, {0, 1});
  EXPECT_EQ(scheme->hierarchy(0).SizeOf(c01[0]), 1u);
  EXPECT_EQ(scheme->hierarchy(1).SizeOf(c01[1]), 2u);
  const GeneralizedRecord c02 = scheme->ClosureOfRows(d, {0, 2});
  EXPECT_EQ(c02[0], scheme->hierarchy(0).FullSetId());
  EXPECT_EQ(c02[1], scheme->hierarchy(1).FullSetId());
  const GeneralizedRecord c0 = scheme->ClosureOfRows(d, {0});
  EXPECT_EQ(c0, scheme->Identity(d.row(0)));
}

TEST(SchemeTest, Consistency) {
  auto scheme = MakeTestScheme();
  const GeneralizedRecord band = scheme->JoinRecords(
      scheme->Identity({0, 0}), scheme->Identity({0, 1}));
  EXPECT_TRUE(scheme->Consistent({0, 0}, band));
  EXPECT_TRUE(scheme->Consistent({0, 1}, band));
  EXPECT_FALSE(scheme->Consistent({1, 0}, band));
  EXPECT_FALSE(scheme->Consistent({0, 2}, band));
}

TEST(SchemeTest, Format) {
  auto scheme = MakeTestScheme();
  EXPECT_EQ(scheme->Format(scheme->Identity({0, 2})), "M | 2");
  EXPECT_EQ(scheme->Format(scheme->Suppressed()), "* | *");
}

TEST(GeneralizedTableTest, IdentityTable) {
  auto scheme = MakeTestScheme();
  Dataset d = MakeTestDataset(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  ASSERT_EQ(t.num_rows(), 3u);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_TRUE(t.ConsistentPair(d, i, i));
    EXPECT_EQ(t.record(i), scheme->Identity(d.row(i)));
  }
  // Identity is maximally specific: row 0 is not consistent with row 2.
  EXPECT_FALSE(t.ConsistentPair(d, 0, 2));
}

TEST(GeneralizedTableTest, FromCellsChecksShapeAndEveryId) {
  auto scheme = MakeTestScheme();
  const GeneralizedRecord top = scheme->Suppressed();
  const Result<GeneralizedTable> t =
      GeneralizedTable::FromCells(scheme, {top[0], top[1]});
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t.value().num_rows(), 1u);
  EXPECT_EQ(t.value().record(0), top);
  EXPECT_EQ(GeneralizedTable::FromCells(scheme, {top[0]}).status().code(),
            StatusCode::kInvalidArgument);
  const SetId past = static_cast<SetId>(scheme->hierarchy(1).num_sets());
  EXPECT_EQ(
      GeneralizedTable::FromCells(scheme, {top[0], top[1], top[0], past})
          .status()
          .code(),
      StatusCode::kOutOfRange);
}

TEST(GeneralizedTableTest, SetAndAppend) {
  auto scheme = MakeTestScheme();
  Dataset d = MakeTestDataset(*scheme);
  GeneralizedTable t(scheme);
  EXPECT_EQ(t.num_rows(), 0u);
  t.AppendRecord(scheme->Suppressed());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.ConsistentPair(d, 0, 0));
  EXPECT_TRUE(t.ConsistentPair(d, 2, 0));
  t.SetRecord(0, scheme->Identity(d.row(0)));
  EXPECT_FALSE(t.ConsistentPair(d, 2, 0));
}

TEST(GeneralizedTableTest, GeneralizeToCover) {
  auto scheme = MakeTestScheme();
  Dataset d = MakeTestDataset(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  EXPECT_FALSE(t.ConsistentPair(d, 1, 0));
  t.GeneralizeToCover(0, d.row(1));
  EXPECT_TRUE(t.ConsistentPair(d, 1, 0));
  EXPECT_TRUE(t.ConsistentPair(d, 0, 0));  // Still covers its own record.
  EXPECT_EQ(t.at(0, 0), scheme->hierarchy(0).LeafOf(0));  // Same gender.
  EXPECT_EQ(scheme->hierarchy(1).SizeOf(t.at(0, 1)), 2u);  // Band {0,1}.
  // R + R̄ with an original differing in both attributes: the gender is
  // suppressed and the age stays inside the band.
  t.GeneralizeToCover(0, Record{1, 1});
  EXPECT_EQ(t.at(0, 0), scheme->hierarchy(0).FullSetId());
  EXPECT_EQ(scheme->hierarchy(1).SizeOf(t.at(0, 1)), 2u);
}

TEST(GeneralizedTableTest, RowwiseGeneralizes) {
  auto scheme = MakeTestScheme();
  Dataset d = MakeTestDataset(*scheme);
  GeneralizedTable fine = GeneralizedTable::Identity(scheme, d);
  GeneralizedTable coarse = GeneralizedTable::Identity(scheme, d);
  coarse.GeneralizeToCover(0, d.row(1));
  EXPECT_TRUE(coarse.RowwiseGeneralizes(fine));
  EXPECT_FALSE(fine.RowwiseGeneralizes(coarse));
  EXPECT_TRUE(fine.RowwiseGeneralizes(fine));
  GeneralizedTable suppressed = GeneralizedTable::Identity(scheme, d);
  for (size_t row = 0; row < d.num_rows(); ++row) {
    suppressed.SetRecord(row, scheme->Suppressed());
  }
  EXPECT_TRUE(suppressed.RowwiseGeneralizes(fine));
  EXPECT_FALSE(fine.RowwiseGeneralizes(suppressed));
}

TEST(GeneralizedTableTest, ToString) {
  auto scheme = MakeTestScheme();
  Dataset d = MakeTestDataset(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("M | 0"), std::string::npos);
  EXPECT_NE(s.find("F | 3"), std::string::npos);
}

}  // namespace
}  // namespace kanon
