#include <gtest/gtest.h>

#include "kanon/anonymity/diversity.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallScheme;
using testing::Unwrap;

// Four rows in two anonymity groups of two; classes chosen per test.
struct Fixture {
  std::shared_ptr<const GeneralizationScheme> scheme;
  Dataset dataset;
  GeneralizedTable table;
};

Fixture MakeFixture(std::vector<ValueCode> classes) {
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  KANON_CHECK(d.AppendRow({0, 0}).ok());
  KANON_CHECK(d.AppendRow({1, 0}).ok());
  KANON_CHECK(d.AppendRow({4, 1}).ok());
  KANON_CHECK(d.AppendRow({5, 1}).ok());
  AttributeDomain cls =
      Unwrap(AttributeDomain::Create("illness", {"flu", "ulcer", "none"}));
  KANON_CHECK(d.SetClassColumn(cls, classes).ok());

  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const GeneralizedRecord c01 = scheme->ClosureOfRows(d, {0, 1});
  const GeneralizedRecord c23 = scheme->ClosureOfRows(d, {2, 3});
  t.SetRecord(0, c01);
  t.SetRecord(1, c01);
  t.SetRecord(2, c23);
  t.SetRecord(3, c23);
  return Fixture{scheme, std::move(d), std::move(t)};
}

TEST(DiversityTest, DistinctDiversityCountsClasses) {
  Fixture f = MakeFixture({0, 1, 0, 2});
  EXPECT_EQ(DistinctDiversity(f.dataset, f.table), 2u);
  EXPECT_TRUE(IsDistinctLDiverse(f.dataset, f.table, 2));
  EXPECT_FALSE(IsDistinctLDiverse(f.dataset, f.table, 3));
}

TEST(DiversityTest, HomogeneousGroupIsOneDiverse) {
  // Group {0,1} has classes {flu, flu}: the classic homogeneity attack.
  Fixture f = MakeFixture({0, 0, 1, 2});
  EXPECT_EQ(DistinctDiversity(f.dataset, f.table), 1u);
  EXPECT_FALSE(IsDistinctLDiverse(f.dataset, f.table, 2));
  EXPECT_TRUE(IsDistinctLDiverse(f.dataset, f.table, 1));
}

TEST(DiversityTest, EmptyTable) {
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  AttributeDomain cls = Unwrap(AttributeDomain::Create("c", {"a"}));
  KANON_CHECK(d.SetClassColumn(cls, {}).ok());
  GeneralizedTable t(scheme);
  EXPECT_EQ(DistinctDiversity(d, t), 0u);
}

}  // namespace
}  // namespace kanon
