#include <gtest/gtest.h>

#include "kanon/generalization/value_set.h"

namespace kanon {
namespace {

TEST(ValueSetTest, EmptyAndInsert) {
  ValueSet s(100);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0u);
  s.Insert(3);
  s.Insert(99);
  EXPECT_FALSE(s.Empty());
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(99));
  EXPECT_FALSE(s.Contains(4));
}

TEST(ValueSetTest, Factories) {
  ValueSet of = ValueSet::Of(10, {1, 3, 5});
  EXPECT_EQ(of.Count(), 3u);
  ValueSet all = ValueSet::All(10);
  EXPECT_EQ(all.Count(), 10u);
  ValueSet single = ValueSet::Singleton(10, 7);
  EXPECT_EQ(single.Count(), 1u);
  EXPECT_TRUE(single.Contains(7));
}

TEST(ValueSetTest, Union) {
  ValueSet a = ValueSet::Of(10, {1, 2, 3});
  ValueSet b = ValueSet::Of(10, {3, 4});
  ValueSet u = a.Union(b);
  EXPECT_EQ(u.Values(), (std::vector<ValueCode>{1, 2, 3, 4}));
}

TEST(ValueSetTest, SubsetAndDisjoint) {
  ValueSet a = ValueSet::Of(10, {1, 2});
  ValueSet b = ValueSet::Of(10, {1, 2, 3});
  ValueSet c = ValueSet::Of(10, {4, 5});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_TRUE(a.DisjointFrom(c));
  EXPECT_FALSE(a.DisjointFrom(b));
}

TEST(ValueSetTest, EqualityAndOrdering) {
  ValueSet a = ValueSet::Of(10, {1, 2});
  ValueSet b = ValueSet::Of(10, {2, 1});
  ValueSet c = ValueSet::Of(10, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Ordering: by size first, then lexicographic member list.
  ValueSet small = ValueSet::Of(10, {9});
  EXPECT_TRUE(small < a);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(ValueSetTest, ValuesAcrossWordBoundary) {
  ValueSet s(130);
  s.Insert(0);
  s.Insert(63);
  s.Insert(64);
  s.Insert(129);
  EXPECT_EQ(s.Values(), (std::vector<ValueCode>{0, 63, 64, 129}));
  EXPECT_EQ(s.Count(), 4u);
}

TEST(ValueSetTest, ToString) {
  ValueSet s = ValueSet::Of(5, {0, 2});
  EXPECT_EQ(s.ToString(), "{0,2}");
}

TEST(ValueSetTest, ToStringWithDomain) {
  Result<AttributeDomain> d =
      AttributeDomain::Create("g", {"M", "F", "X"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(ValueSet::Singleton(3, 1).ToString(d.value()), "F");
  EXPECT_EQ(ValueSet::Of(3, {0, 1}).ToString(d.value()), "{M,F}");
  EXPECT_EQ(ValueSet::All(3).ToString(d.value()), "*");
}

}  // namespace
}  // namespace kanon
