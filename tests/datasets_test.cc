#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/datasets/cmc.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::Unwrap;

TEST(ArtWorkloadTest, ShapeMatchesPaper) {
  Workload w = Unwrap(MakeArtWorkload(500, 1));
  EXPECT_EQ(w.name, "ART");
  EXPECT_EQ(w.dataset.num_rows(), 500u);
  ASSERT_EQ(w.dataset.num_attributes(), 6u);
  const size_t domain_sizes[] = {2, 4, 4, 25, 10, 5};
  for (size_t j = 0; j < 6; ++j) {
    EXPECT_EQ(w.dataset.schema().attribute(j).size(), domain_sizes[j]);
    EXPECT_EQ(w.scheme->hierarchy(j).domain_size(), domain_sizes[j]);
    EXPECT_TRUE(w.scheme->hierarchy(j).IsLaminar());
  }
}

TEST(ArtWorkloadTest, SubsetCountsMatchPaper) {
  Workload w = Unwrap(MakeArtWorkload(10, 1));
  // Singletons + full set + the paper's non-trivial groups.
  EXPECT_EQ(w.scheme->hierarchy(0).num_sets(), 2u + 1u);
  EXPECT_EQ(w.scheme->hierarchy(1).num_sets(), 4u + 1u + 2u);
  EXPECT_EQ(w.scheme->hierarchy(2).num_sets(), 4u + 1u + 2u);
  EXPECT_EQ(w.scheme->hierarchy(3).num_sets(), 25u + 1u + 6u);
  EXPECT_EQ(w.scheme->hierarchy(4).num_sets(), 10u + 1u + 6u);
  EXPECT_EQ(w.scheme->hierarchy(5).num_sets(), 5u + 1u + 3u);
}

TEST(ArtWorkloadTest, DistributionsApproximatelyMatch) {
  Workload w = Unwrap(MakeArtWorkload(40000, 7));
  const std::vector<uint32_t> counts = w.dataset.ValueCounts()[0];
  EXPECT_NEAR(counts[0] / 40000.0, 0.7, 0.02);
  EXPECT_NEAR(counts[1] / 40000.0, 0.3, 0.02);
  const std::vector<uint32_t> c6 = w.dataset.ValueCounts()[5];
  EXPECT_NEAR(c6[2] / 40000.0, 0.5, 0.02);
}

TEST(ArtWorkloadTest, DeterministicInSeed) {
  Workload a = Unwrap(MakeArtWorkload(100, 42));
  Workload b = Unwrap(MakeArtWorkload(100, 42));
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.dataset.row(i), b.dataset.row(i));
  }
  Workload c = Unwrap(MakeArtWorkload(100, 43));
  bool any_diff = false;
  for (size_t i = 0; i < 100 && !any_diff; ++i) {
    any_diff = a.dataset.row(i) != c.dataset.row(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ArtWorkloadTest, RejectsZeroRows) {
  EXPECT_FALSE(MakeArtWorkload(0, 1).ok());
}

TEST(AdultWorkloadTest, ShapeAndHierarchies) {
  Workload w = Unwrap(MakeAdultWorkload(300, 3));
  EXPECT_EQ(w.name, "ADT");
  EXPECT_EQ(w.dataset.num_rows(), 300u);
  ASSERT_EQ(w.dataset.num_attributes(), 9u);
  EXPECT_EQ(w.dataset.schema().attribute(0).name(), "age");
  EXPECT_EQ(w.dataset.schema().attribute(8).name(), "native-country");
  EXPECT_EQ(w.dataset.schema().attribute(8).size(), 41u);
  for (size_t j = 0; j < 9; ++j) {
    EXPECT_TRUE(w.scheme->hierarchy(j).IsLaminar()) << "attribute " << j;
  }
  EXPECT_TRUE(w.dataset.has_class_column());
  EXPECT_EQ(w.dataset.class_domain().size(), 2u);
}

TEST(AdultWorkloadTest, MarginalsRoughlyRealistic) {
  Workload w = Unwrap(MakeAdultWorkload(20000, 5));
  // work-class: Private dominates.
  const auto workclass = w.dataset.ValueCounts()[1];
  EXPECT_NEAR(workclass[0] / 20000.0, 0.73, 0.03);
  // native-country: United-States ≈ 0.9.
  const auto country = w.dataset.ValueCounts()[8];
  const ValueCode us =
      Unwrap(w.dataset.schema().attribute(8).CodeOf("United-States"));
  EXPECT_NEAR(country[us] / 20000.0, 0.9, 0.03);
  // sex: ~2/3 male.
  const auto sex = w.dataset.ValueCounts()[7];
  EXPECT_NEAR(sex[0] / 20000.0, 0.67, 0.03);
}

TEST(AdultWorkloadTest, RelationshipFollowsMaritalAndSex) {
  Workload w = Unwrap(MakeAdultWorkload(5000, 9));
  const Schema& schema = w.dataset.schema();
  const ValueCode married = Unwrap(schema.attribute(3).CodeOf("Married-civ-spouse"));
  const ValueCode male = Unwrap(schema.attribute(7).CodeOf("Male"));
  const ValueCode husband = Unwrap(schema.attribute(5).CodeOf("Husband"));
  const ValueCode wife = Unwrap(schema.attribute(5).CodeOf("Wife"));
  size_t married_males = 0;
  size_t husbands = 0;
  size_t wrong_wife = 0;
  for (size_t i = 0; i < w.dataset.num_rows(); ++i) {
    if (w.dataset.at(i, 3) == married && w.dataset.at(i, 7) == male) {
      ++married_males;
      if (w.dataset.at(i, 5) == husband) ++husbands;
      if (w.dataset.at(i, 5) == wife) ++wrong_wife;
    }
  }
  ASSERT_GT(married_males, 100u);
  EXPECT_GT(husbands, married_males * 9 / 10);
  EXPECT_EQ(wrong_wife, 0u);
}

TEST(AdultWorkloadTest, AgeBandsJoin) {
  Workload w = Unwrap(MakeAdultWorkload(10, 1));
  const Hierarchy& age = w.scheme->hierarchy(0);
  // Ages 17 and 21 (codes 0 and 4) share the first 5-year band.
  EXPECT_EQ(age.SizeOf(age.Join(age.LeafOf(0), age.LeafOf(4))), 5u);
  // Codes 0 and 9 need a 10-year band.
  EXPECT_EQ(age.SizeOf(age.Join(age.LeafOf(0), age.LeafOf(9))), 10u);
}

TEST(AdultWorkloadTest, LoadRealFileRoundTrip) {
  // Synthesize a tiny adult.data-shaped file and load it.
  const char* path = "/tmp/kanon_adult_test.data";
  {
    std::ofstream f(path);
    f << "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
         " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n";
    f << "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse,"
         " Exec-managerial, Husband, White, Male, 0, 0, 13, United-States,"
         " >50K\n";
    f << "38, ?, 215646, HS-grad, 9, Divorced, Handlers-cleaners,"
         " Not-in-family, White, Male, 0, 0, 40, United-States, <=50K\n";
  }
  Workload w = Unwrap(LoadAdultWorkload(path, 0));
  EXPECT_EQ(w.dataset.num_rows(), 2u);  // The '?' row is skipped.
  EXPECT_EQ(w.dataset.schema().attribute(0).label(w.dataset.at(0, 0)), "39");
  EXPECT_EQ(w.dataset.class_of(0), 0);
  EXPECT_EQ(w.dataset.class_of(1), 1);
  std::remove(path);
}

TEST(AdultWorkloadTest, LoadRespectsMaxRows) {
  const char* path = "/tmp/kanon_adult_test2.data";
  {
    std::ofstream f(path);
    for (int i = 0; i < 5; ++i) {
      f << "40, Private, 1, HS-grad, 9, Divorced, Sales, Not-in-family,"
           " White, Female, 0, 0, 40, Canada, <=50K\n";
    }
  }
  Workload w = Unwrap(LoadAdultWorkload(path, 3));
  EXPECT_EQ(w.dataset.num_rows(), 3u);
  std::remove(path);
}

TEST(AdultWorkloadTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadAdultWorkload("/nonexistent/adult.data", 0).ok());
}

TEST(CmcWorkloadTest, ShapeAndHierarchies) {
  Workload w = Unwrap(MakeCmcWorkload(1473, 2));
  EXPECT_EQ(w.name, "CMC");
  EXPECT_EQ(w.dataset.num_rows(), 1473u);
  ASSERT_EQ(w.dataset.num_attributes(), 9u);
  EXPECT_TRUE(w.dataset.has_class_column());
  EXPECT_EQ(w.dataset.class_domain().size(), 3u);
  for (size_t j = 0; j < 9; ++j) {
    EXPECT_TRUE(w.scheme->hierarchy(j).IsLaminar()) << "attribute " << j;
  }
}

TEST(CmcWorkloadTest, MarginalsRoughlyRealistic) {
  Workload w = Unwrap(MakeCmcWorkload(20000, 3));
  // Wife education skews high.
  const auto edu = w.dataset.ValueCounts()[1];
  EXPECT_GT(edu[3], edu[0]);
  // Media exposure overwhelmingly "good" (code 0).
  const auto media = w.dataset.ValueCounts()[8];
  EXPECT_NEAR(media[0] / 20000.0, 0.926, 0.02);
}

TEST(CmcWorkloadTest, ClassCorrelatesWithChildlessness) {
  Workload w = Unwrap(MakeCmcWorkload(20000, 4));
  size_t childless = 0;
  size_t childless_no_use = 0;
  size_t parent = 0;
  size_t parent_no_use = 0;
  for (size_t i = 0; i < w.dataset.num_rows(); ++i) {
    if (w.dataset.at(i, 3) == 0) {
      ++childless;
      if (w.dataset.class_of(i) == 0) ++childless_no_use;
    } else {
      ++parent;
      if (w.dataset.class_of(i) == 0) ++parent_no_use;
    }
  }
  ASSERT_GT(childless, 200u);
  EXPECT_GT(childless_no_use * parent,
            parent_no_use * childless);  // Rate comparison.
}

TEST(CmcWorkloadTest, LoadRealFileFormat) {
  const char* path = "/tmp/kanon_cmc_test.data";
  {
    std::ofstream f(path);
    f << "24,2,3,3,1,1,2,3,0,1\n";
    f << "45,1,3,10,1,1,3,4,0,1\n";
    f << "43,2,3,7,1,1,3,4,0,2\n";
  }
  Workload w = Unwrap(LoadCmcWorkload(path));
  EXPECT_EQ(w.dataset.num_rows(), 3u);
  EXPECT_EQ(w.dataset.schema().attribute(0).label(w.dataset.at(0, 0)), "24");
  EXPECT_EQ(w.dataset.class_of(0), 0);
  EXPECT_EQ(w.dataset.class_of(2), 1);
  std::remove(path);
}

TEST(CmcWorkloadTest, LoadRejectsBadClass) {
  const char* path = "/tmp/kanon_cmc_bad.data";
  {
    std::ofstream f(path);
    f << "24,2,3,3,1,1,2,3,0,9\n";
  }
  EXPECT_FALSE(LoadCmcWorkload(path).ok());
  std::remove(path);
}


TEST(ArtWorkloadTest, PaperGroupsArePermissible) {
  // Spot-check that the exact subsets printed in Section VI exist.
  Workload w = Unwrap(MakeArtWorkload(10, 1));
  const Hierarchy& a4 = w.scheme->hierarchy(3);
  // {a1..a6} and {a13..a25} (1-based) must be permissible subsets.
  ValueSet first(25);
  for (ValueCode v = 0; v < 6; ++v) first.Insert(v);
  EXPECT_TRUE(a4.IdOf(first).ok());
  ValueSet second(25);
  for (ValueCode v = 12; v < 25; ++v) second.Insert(v);
  EXPECT_TRUE(a4.IdOf(second).ok());
  // An unlisted subset, e.g. {a1,a7}, is not permissible.
  EXPECT_FALSE(a4.IdOf(ValueSet::Of(25, {0, 6})).ok());

  const Hierarchy& a6 = w.scheme->hierarchy(5);
  EXPECT_TRUE(a6.IdOf(ValueSet::Of(5, {2, 3, 4})).ok());   // {a3,a4,a5}.
  EXPECT_FALSE(a6.IdOf(ValueSet::Of(5, {0, 1, 2})).ok());  // Not listed.
}

TEST(AdultWorkloadTest, LoaderRejectsOutOfRangeAge) {
  const char* path = "/tmp/kanon_adult_badage.data";
  {
    std::ofstream f(path);
    f << "12, Private, 1, HS-grad, 9, Divorced, Sales, Not-in-family,"
         " White, Female, 0, 0, 40, Canada, <=50K\n";
  }
  EXPECT_FALSE(LoadAdultWorkload(path, 0).ok());
  std::remove(path);
}

}  // namespace
}  // namespace kanon
