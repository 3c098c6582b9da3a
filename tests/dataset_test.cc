#include <gtest/gtest.h>

#include "kanon/data/attribute.h"
#include "kanon/data/dataset.h"
#include "kanon/data/schema.h"

namespace kanon {
namespace {

AttributeDomain MakeDomain(const std::string& name,
                           std::vector<std::string> labels) {
  Result<AttributeDomain> d = AttributeDomain::Create(name, std::move(labels));
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

Schema MakeTestSchema() {
  Result<Schema> s = Schema::Create(
      {MakeDomain("gender", {"M", "F"}),
       MakeDomain("city", {"NYC", "LA", "SF"})});
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST(AttributeDomainTest, BasicLookups) {
  AttributeDomain d = MakeDomain("gender", {"M", "F"});
  EXPECT_EQ(d.name(), "gender");
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.label(0), "M");
  EXPECT_EQ(d.label(1), "F");
  EXPECT_EQ(d.CodeOf("F").value(), 1);
  EXPECT_FALSE(d.CodeOf("X").ok());
}

TEST(AttributeDomainTest, RejectsEmptyAndDuplicates) {
  EXPECT_FALSE(AttributeDomain::Create("x", {}).ok());
  EXPECT_FALSE(AttributeDomain::Create("x", {"a", "a"}).ok());
}

TEST(AttributeDomainTest, IntegerRange) {
  AttributeDomain d = AttributeDomain::IntegerRange("age", 17, 20);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.label(0), "17");
  EXPECT_EQ(d.label(3), "20");
  EXPECT_EQ(d.CodeOf("19").value(), 2);
}

TEST(SchemaTest, BasicLookups) {
  Schema s = MakeTestSchema();
  EXPECT_EQ(s.num_attributes(), 2u);
  EXPECT_EQ(s.attribute(0).name(), "gender");
  EXPECT_EQ(s.IndexOf("city").value(), 1u);
  EXPECT_FALSE(s.IndexOf("zip").ok());
}

TEST(SchemaTest, RejectsDuplicatesAndEmpty) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({MakeDomain("a", {"x"}), MakeDomain("a", {"y"})})
                   .ok());
}

TEST(SchemaTest, Equals) {
  Schema a = MakeTestSchema();
  Schema b = MakeTestSchema();
  EXPECT_TRUE(a.Equals(b));
  Result<Schema> c = Schema::Create({MakeDomain("gender", {"M", "F"})});
  EXPECT_FALSE(a.Equals(c.value()));
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset d(MakeTestSchema());
  EXPECT_EQ(d.num_rows(), 0u);
  ASSERT_TRUE(d.AppendRow({0, 2}).ok());
  ASSERT_TRUE(d.AppendRow({1, 0}).ok());
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.at(0, 1), 2);
  EXPECT_EQ(d.at(1, 0), 1);
  EXPECT_EQ(d.row(1), (Record{1, 0}));
}

TEST(DatasetTest, AppendValidates) {
  Dataset d(MakeTestSchema());
  EXPECT_FALSE(d.AppendRow({0}).ok());         // Wrong arity.
  EXPECT_FALSE(d.AppendRow({0, 3}).ok());      // Out-of-range code.
  EXPECT_EQ(d.num_rows(), 0u);
}

TEST(DatasetTest, AppendRowLabels) {
  Dataset d(MakeTestSchema());
  ASSERT_TRUE(d.AppendRowLabels({"F", "SF"}).ok());
  EXPECT_EQ(d.at(0, 0), 1);
  EXPECT_EQ(d.at(0, 1), 2);
  EXPECT_FALSE(d.AppendRowLabels({"F", "Boston"}).ok());
}

TEST(DatasetTest, ValueCounts) {
  Dataset d(MakeTestSchema());
  ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  ASSERT_TRUE(d.AppendRow({0, 1}).ok());
  ASSERT_TRUE(d.AppendRow({1, 0}).ok());
  const std::vector<std::vector<uint32_t>> counts = d.ValueCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], (std::vector<uint32_t>{2, 1}));
  EXPECT_EQ(counts[1], (std::vector<uint32_t>{2, 1, 0}));
  // An empty dataset counts a zero for every value of every attribute.
  EXPECT_EQ(Dataset(MakeTestSchema()).ValueCounts(),
            (std::vector<std::vector<uint32_t>>{{0, 0}, {0, 0, 0}}));
}

TEST(DatasetTest, ValueCountsSkewed) {
  // Heavily skewed column: every count must land on the one hot value and
  // the untouched values must stay exactly zero.
  Dataset d(MakeTestSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(d.AppendRow({1, 2}).ok());
  }
  ASSERT_TRUE(d.AppendRow({0, 2}).ok());
  EXPECT_EQ(d.ValueCounts()[0], (std::vector<uint32_t>{1, 100}));
  EXPECT_EQ(d.ValueCounts()[1], (std::vector<uint32_t>{0, 0, 101}));
}

TEST(DatasetTest, RowViewMatchesCells) {
  Dataset d(MakeTestSchema());
  ASSERT_TRUE(d.AppendRow({0, 2}).ok());
  ASSERT_TRUE(d.AppendRow({1, 0}).ok());
  ASSERT_TRUE(d.AppendRow({1, 1}).ok());
  // The invariant the engines rely on: at(i, j) == row_view(i)[j] for
  // every cell.
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const RowView view = d.row_view(i);
    ASSERT_EQ(view.size(), d.num_attributes());
    for (size_t j = 0; j < d.num_attributes(); ++j) {
      EXPECT_EQ(view[j], d.at(i, j));
    }
    EXPECT_EQ(view.ToRecord(), d.row(i));
  }
}

TEST(DatasetTest, ClassColumn) {
  Dataset d(MakeTestSchema());
  ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  ASSERT_TRUE(d.AppendRow({1, 1}).ok());
  EXPECT_FALSE(d.has_class_column());
  ASSERT_TRUE(
      d.SetClassColumn(MakeDomain("ill", {"flu", "none"}), {1, 0}).ok());
  EXPECT_TRUE(d.has_class_column());
  EXPECT_EQ(d.class_of(0), 1);
  EXPECT_EQ(d.class_domain().name(), "ill");
  // No appends after attaching a class column.
  EXPECT_FALSE(d.AppendRow({0, 0}).ok());
}

TEST(DatasetTest, ClassColumnOnEmptyDatasetBlocksAppend) {
  // Regression: the append guard used to check class_codes_ (empty here),
  // so appends after attaching a class column to an EMPTY dataset slipped
  // through and desynced the class column from the rows.
  Dataset d(MakeTestSchema());
  ASSERT_TRUE(d.SetClassColumn(MakeDomain("c", {"x"}), {}).ok());
  EXPECT_TRUE(d.has_class_column());
  EXPECT_FALSE(d.AppendRow({0, 0}).ok());
  EXPECT_EQ(d.num_rows(), 0u);
}

TEST(DatasetDeathTest, ClassOfDistinguishesMissingColumnFromBadRow) {
  Dataset without(MakeTestSchema());
  ASSERT_TRUE(without.AppendRow({0, 0}).ok());
  EXPECT_DEATH(without.class_of(0), "dataset has no class column");

  // Regression: an out-of-range row used to abort with the misleading
  // "dataset has no class column" even though the column exists.
  Dataset with(MakeTestSchema());
  ASSERT_TRUE(with.AppendRow({0, 0}).ok());
  ASSERT_TRUE(with.SetClassColumn(MakeDomain("c", {"x"}), {0}).ok());
  EXPECT_DEATH(with.class_of(5), "class row index out of range");
}

TEST(DatasetTest, ClassColumnValidation) {
  Dataset d(MakeTestSchema());
  ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  EXPECT_FALSE(
      d.SetClassColumn(MakeDomain("c", {"x"}), {0, 0}).ok());  // Wrong size.
  EXPECT_FALSE(
      d.SetClassColumn(MakeDomain("c", {"x"}), {3}).ok());  // Bad code.
}

TEST(DatasetTest, Head) {
  Dataset d(MakeTestSchema());
  ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  ASSERT_TRUE(d.AppendRow({1, 1}).ok());
  ASSERT_TRUE(d.AppendRow({0, 2}).ok());
  ASSERT_TRUE(d.SetClassColumn(MakeDomain("c", {"x", "y"}), {0, 1, 0}).ok());
  Dataset h = d.Head(2);
  EXPECT_EQ(h.num_rows(), 2u);
  EXPECT_EQ(h.at(1, 1), 1);
  EXPECT_TRUE(h.has_class_column());
  EXPECT_EQ(h.class_of(1), 1);
}

}  // namespace
}  // namespace kanon
