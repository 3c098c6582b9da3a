#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "kanon/algo/distance.h"

namespace kanon {
namespace {

constexpr DistanceFunction kWeighted = DistanceFunction::kWeighted;
constexpr DistanceFunction kPlain = DistanceFunction::kPlain;
constexpr DistanceFunction kLogWeighted = DistanceFunction::kLogWeighted;
constexpr DistanceFunction kRatio = DistanceFunction::kRatio;
constexpr DistanceFunction kNergizClifton = DistanceFunction::kNergizClifton;

TEST(DistanceTest, WeightedFormula) {
  // (8): |A∪B|·d(A∪B) − |A|·d(A) − |B|·d(B).
  EXPECT_DOUBLE_EQ(ClusterDistance<kWeighted>(2, 3, 5, 0.2, 0.3, 0.5),
                   5 * 0.5 - 2 * 0.2 - 3 * 0.3);
}

TEST(DistanceTest, PlainFormula) {
  // (9): d(A∪B) − d(A) − d(B). Can be negative.
  EXPECT_DOUBLE_EQ(ClusterDistance<kPlain>(2, 3, 5, 0.4, 0.3, 0.5),
                   0.5 - 0.4 - 0.3);
}

TEST(DistanceTest, LogWeightedFormula) {
  // (10): (d(A∪B) − d(A) − d(B)) / log2|A∪B|.
  EXPECT_DOUBLE_EQ(ClusterDistance<kLogWeighted>(2, 2, 4, 0.1, 0.1, 0.6),
                   (0.6 - 0.2) / 2.0);
}

TEST(DistanceTest, RatioFormula) {
  // (11): d(A∪B) / (d(A) + d(B) + ε), with the paper's ε = 0.1.
  EXPECT_DOUBLE_EQ(ClusterDistance<kRatio>(1, 1, 2, 0.0, 0.0, 0.3),
                   0.3 / 0.1);
  EXPECT_DOUBLE_EQ(ClusterDistance<kRatio>(2, 2, 4, 0.1, 0.2, 0.6),
                   0.6 / (0.1 + 0.2 + kRatioEpsilon));
}

TEST(DistanceTest, RatioGuardsZeroDenominator) {
  // A LossMeasure may price closures below zero, so d(A) + d(B) + ε can be
  // exactly 0: here the parts sum to −ε. Dividing would give NaN (0/0) or
  // an unguarded inf, and a NaN poisons every comparison it touches.
  const double d_a = -0.0625;
  const double d_b = -0.0375;
  ASSERT_EQ(d_a + d_b + kRatioEpsilon, 0.0);
  // 0/0 corner: a zero-cost union is a perfect merge.
  EXPECT_EQ(ClusterDistance<kRatio>(1, 1, 2, d_a, d_b, 0.0), 0.0);
  // x/0 corner: a costly union is maximally unattractive — an ordered
  // value, never NaN.
  const double d = ClusterDistance<kRatio>(1, 1, 2, d_a, d_b, 0.3);
  EXPECT_EQ(d, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(std::isnan(d));
}

TEST(DistanceTest, NergizCliftonIsAsymmetric) {
  const double ab = ClusterDistance<kNergizClifton>(2, 3, 5, 0.2, 0.4, 0.7);
  const double ba = ClusterDistance<kNergizClifton>(3, 2, 5, 0.4, 0.2, 0.7);
  EXPECT_DOUBLE_EQ(ab, 0.7 - 0.4);
  EXPECT_DOUBLE_EQ(ba, 0.7 - 0.2);
  EXPECT_NE(ab, ba);
}

template <DistanceFunction F>
bool SymmetricAtSample() {
  return ClusterDistance<F>(2, 3, 5, 0.2, 0.4, 0.7) ==
         ClusterDistance<F>(3, 2, 5, 0.4, 0.2, 0.7);
}

TEST(DistanceTest, OnlyNergizCliftonIsAsymmetric) {
  // The engine prices the reverse direction only for Nergiz–Clifton; every
  // other distance must give dist(A, B) = dist(B, A) bit for bit.
  EXPECT_TRUE(SymmetricAtSample<kWeighted>());
  EXPECT_TRUE(SymmetricAtSample<kPlain>());
  EXPECT_TRUE(SymmetricAtSample<kLogWeighted>());
  EXPECT_TRUE(SymmetricAtSample<kRatio>());
  EXPECT_FALSE(SymmetricAtSample<kNergizClifton>());
}

TEST(DistanceTest, OverlappingArguments) {
  // The modified algorithm evaluates dist(Ŝ, Ŝ∖{R}): union size = |Ŝ|.
  const double d = ClusterDistance<kWeighted>(4, 3, 4, 0.5, 0.2, 0.5);
  EXPECT_DOUBLE_EQ(d, 4 * 0.5 - 4 * 0.5 - 3 * 0.2);
}

TEST(DistanceTest, NamesAreStable) {
  EXPECT_EQ(DistanceFunctionName(DistanceFunction::kWeighted), "dist1(8)");
  EXPECT_EQ(DistanceFunctionName(DistanceFunction::kPlain), "dist2(9)");
  EXPECT_EQ(DistanceFunctionName(DistanceFunction::kLogWeighted), "dist3(10)");
  EXPECT_EQ(DistanceFunctionName(DistanceFunction::kRatio), "dist4(11)");
  EXPECT_EQ(DistanceFunctionName(DistanceFunction::kNergizClifton), "distNC");
}

TEST(DistanceTest, AllDistanceFunctionsArrayCoversEnum) {
  EXPECT_EQ(std::size(kAllDistanceFunctions), 5u);
}

}  // namespace
}  // namespace kanon
