#include <gtest/gtest.h>

#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/loss/entropy_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallScheme;
using testing::Unwrap;

// Four records over SmallScheme; rows 0,1 share zip band {0,1} and sex M.
Dataset FourRows(const GeneralizationScheme& scheme) {
  Dataset d(scheme.schema());
  KANON_CHECK(d.AppendRow({0, 0}).ok());
  KANON_CHECK(d.AppendRow({1, 0}).ok());
  KANON_CHECK(d.AppendRow({4, 1}).ok());
  KANON_CHECK(d.AppendRow({5, 1}).ok());
  return d;
}

// Generalization pairing rows {0,1} and {2,3} by their cluster closures —
// a proper 2-anonymization.
GeneralizedTable PairTable(std::shared_ptr<const GeneralizationScheme> scheme,
                           const Dataset& d) {
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const GeneralizedRecord c01 = scheme->ClosureOfRows(d, {0, 1});
  const GeneralizedRecord c23 = scheme->ClosureOfRows(d, {2, 3});
  t.SetRecord(0, c01);
  t.SetRecord(1, c01);
  t.SetRecord(2, c23);
  t.SetRecord(3, c23);
  return t;
}

TEST(VerifyTest, IdentityTableIsOnlyOneAnonymous) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  EXPECT_TRUE(Unwrap(IsKAnonymous(t, 1)));
  EXPECT_FALSE(Unwrap(IsKAnonymous(t, 2)));
  EXPECT_TRUE(Unwrap(Is1KAnonymous(d, t, 1)));
  EXPECT_FALSE(Unwrap(Is1KAnonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(IsK1Anonymous(d, t, 1)));
  EXPECT_FALSE(Unwrap(IsK1Anonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(IsGlobal1KAnonymous(d, t, 1)));
  EXPECT_FALSE(Unwrap(IsGlobal1KAnonymous(d, t, 2)));
}

TEST(VerifyTest, ProperPairingSatisfiesAllNotions) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = PairTable(scheme, d);
  EXPECT_TRUE(Unwrap(IsKAnonymous(t, 2)));
  EXPECT_TRUE(Unwrap(Is1KAnonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(IsK1Anonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(IsKKAnonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(IsGlobal1KAnonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(IsGlobal1KAnonymousNaive(d, t, 2)));
  EXPECT_FALSE(Unwrap(IsKAnonymous(t, 3)));
}

TEST(VerifyTest, OneKWithoutKOne) {
  // The degenerate (1,k) example of Section IV-A: leave most rows intact
  // and fully suppress the last k rows. (1,k) holds; (k,1) fails; privacy
  // is clearly broken.
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  t.SetRecord(2, scheme->Suppressed());
  t.SetRecord(3, scheme->Suppressed());
  EXPECT_TRUE(Unwrap(Is1KAnonymous(d, t, 2)));   // Everyone matches the 2 suppressed.
  EXPECT_FALSE(Unwrap(IsK1Anonymous(d, t, 2)));  // Rows 0,1 cover only themselves.
  EXPECT_FALSE(Unwrap(IsKKAnonymous(d, t, 2)));
}

TEST(VerifyTest, KOneWithoutOneK) {
  // A (k,1)-but-not-(1,k) table: map *every* generalized record to the
  // closure of rows {0,1}. Each published record covers two originals, so
  // (2,1) holds — but rows 2 and 3 are consistent with nothing, so (1,2)
  // fails. This mirrors the weakness of plain (k,1) that Section IV-A
  // discusses.
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const GeneralizedRecord c01 = scheme->ClosureOfRows(d, {0, 1});
  for (size_t i = 0; i < 4; ++i) t.SetRecord(i, c01);
  EXPECT_TRUE(Unwrap(IsK1Anonymous(d, t, 2)));
  EXPECT_FALSE(Unwrap(Is1KAnonymous(d, t, 2)));
  EXPECT_FALSE(Unwrap(IsKKAnonymous(d, t, 2)));
}

TEST(VerifyTest, WitnessNamesViolatingGroupForKAnonymity) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = PairTable(scheme, d);
  // Break the {2,3} group: row 3 becomes fully suppressed, so rows 2 and 3
  // each sit in singleton groups.
  t.SetRecord(3, scheme->Suppressed());
  const NotionWitness w = Unwrap(WitnessKAnonymity(t, 2));
  ASSERT_FALSE(w.satisfied);
  EXPECT_EQ(w.notion, AnonymityNotion::kKAnonymity);
  EXPECT_TRUE(w.row_in_table);
  EXPECT_EQ(w.observed, 1u);
  // The named row really is in a singleton group, and is its own cluster id.
  EXPECT_TRUE(w.row == 2 || w.row == 3);
  EXPECT_EQ(w.cluster, w.row);
  EXPECT_NE(w.ToString(2).find("identical-record group of 1"),
            std::string::npos);
}

TEST(VerifyTest, WitnessNamesUncoveredDatasetRowForOneK) {
  // The OneKWithoutKOne table flipped around: identity on rows 0,1 and
  // suppression on 2,3 makes dataset rows 2,3 consistent with exactly the
  // two suppressed records, while table rows 0,1 cover only themselves.
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  t.SetRecord(2, scheme->Suppressed());
  t.SetRecord(3, scheme->Suppressed());
  // Dataset rows 0,1 match their identity record plus the two suppressed
  // ones (degree 3); rows 2,3 match only the suppressed pair (degree 2).
  // So (1,2) holds and (1,3) first fails at dataset row 2.
  EXPECT_TRUE(Unwrap(Witness1K(d, t, 2)).satisfied);
  const NotionWitness one_k = Unwrap(Witness1K(d, t, 3));
  ASSERT_FALSE(one_k.satisfied);
  EXPECT_FALSE(one_k.row_in_table);
  EXPECT_EQ(one_k.row, 2u);
  EXPECT_EQ(one_k.observed, 2u);
  const NotionWitness k_one = Unwrap(WitnessK1(d, t, 2));
  ASSERT_FALSE(k_one.satisfied);
  EXPECT_TRUE(k_one.row_in_table);
  EXPECT_EQ(k_one.row, 0u);   // Table row 0 covers only dataset row 0.
  EXPECT_EQ(k_one.observed, 1u);
}

TEST(VerifyTest, WitnessKKReportsFirstFailingSide) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  // (1,k) side holds, (k,1) side fails: the witness must carry the (k,1)
  // violation but report the (k,k) notion.
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  t.SetRecord(2, scheme->Suppressed());
  t.SetRecord(3, scheme->Suppressed());
  const NotionWitness w = Unwrap(WitnessKK(d, t, 2));
  ASSERT_FALSE(w.satisfied);
  EXPECT_EQ(w.notion, AnonymityNotion::kKK);
  EXPECT_TRUE(w.row_in_table);
  EXPECT_EQ(w.row, 0u);
}

TEST(VerifyTest, WitnessGlobalNamesShortMatchRow) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const NotionWitness w = Unwrap(WitnessGlobal1K(d, t, 2));
  ASSERT_FALSE(w.satisfied);
  EXPECT_FALSE(w.row_in_table);
  EXPECT_EQ(w.observed, 1u);  // Identity: each row matches only itself.
  EXPECT_EQ(w.row, 0u);
}

TEST(VerifyTest, WitnessAgreesWithBooleanVerifiers) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  const GeneralizedTable tables[] = {
      GeneralizedTable::Identity(scheme, d),
      PairTable(scheme, d),
  };
  for (const auto& t : tables) {
    for (size_t k = 1; k <= 3; ++k) {
      for (AnonymityNotion notion :
           {AnonymityNotion::kKAnonymity, AnonymityNotion::kOneK,
            AnonymityNotion::kKOne, AnonymityNotion::kKK,
            AnonymityNotion::kGlobalOneK}) {
        const NotionWitness w = Unwrap(WitnessNotion(notion, d, t, k));
        EXPECT_EQ(w.satisfied, Unwrap(SatisfiesNotion(notion, d, t, k)))
            << AnonymityNotionName(notion) << " k=" << k;
        if (!w.satisfied) {
          EXPECT_LT(w.observed, k);
        }
      }
    }
  }
}

TEST(VerifyTest, WitnessRejectsBadArguments) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = PairTable(scheme, d);
  EXPECT_FALSE(WitnessKAnonymity(t, 0).ok());
  EXPECT_FALSE(WitnessKK(d, t, 0).ok());
  GeneralizedTable short_table(scheme);
  short_table.AppendRecord(scheme->Suppressed());
  EXPECT_FALSE(WitnessGlobal1K(d, short_table, 2).ok());
}

TEST(VerifyTest, RejectsDatasetDomainOtherThanHierarchy) {
  // Same arity, but the dataset's zip domain has 10 values where the
  // hierarchy has 8: a code the consistency index does not cover.
  auto scheme = SmallScheme();
  GeneralizedTable t = PairTable(scheme, FourRows(*scheme));
  AttributeDomain zip = AttributeDomain::IntegerRange("zip", 0, 9);
  AttributeDomain sex = Unwrap(AttributeDomain::Create("sex", {"M", "F"}));
  Dataset wide(Unwrap(Schema::Create({zip, sex})));
  KANON_CHECK(wide.AppendRow({9, 0}).ok());
  for (AnonymityNotion notion :
       {AnonymityNotion::kOneK, AnonymityNotion::kKOne, AnonymityNotion::kKK,
        AnonymityNotion::kGlobalOneK}) {
    const Result<NotionWitness> w = WitnessNotion(notion, wide, t, 1);
    ASSERT_FALSE(w.ok()) << AnonymityNotionName(notion);
    EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(w.status().message().find("'zip'"), std::string::npos)
        << w.status().ToString();
  }
  EXPECT_FALSE(AnalyzeAnonymity(wide, t, 1).ok());
}

// (row, side, degree) of a failing witness.
void ExpectWitness(const Result<NotionWitness>& w, size_t row, bool in_table,
                   size_t observed) {
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_FALSE(w->satisfied);
  EXPECT_EQ(w->row, row);
  EXPECT_EQ(w->row_in_table, in_table);
  EXPECT_EQ(w->observed, observed);
  EXPECT_EQ(w->cluster, row);
}

TEST(VerifyTest, WitnessesPinnedOnGeneratedTables) {
  // The witnesses the scalar ConsistentPair scans reported on generated
  // tables of 130 rows (two bitset words), pinned so that the consistency
  // index names the same row, side and degree.
  Workload art = Unwrap(MakeArtWorkload(130, 16));
  PrecomputedLoss art_loss(art.scheme, art.dataset, EntropyMeasure());
  const Dataset& a = art.dataset;
  const GeneralizedTable art_k1 = Unwrap(K1GreedyExpansion(a, art_loss, 5));
  ExpectWitness(Witness1K(a, art_k1, 2), 17, false, 1);
  ExpectWitness(Witness1K(a, art_k1, 3), 16, false, 2);
  const GeneralizedTable art_kk =
      Unwrap(KKAnonymize(a, art_loss, 3, K1Algorithm::kGreedyExpansion));
  ExpectWitness(WitnessKK(a, art_kk, 4), 37, false, 3);
  ExpectWitness(WitnessGlobal1K(a, art_kk, 2), 6, false, 1);

  Workload adult = Unwrap(MakeAdultWorkload(130, 16));
  PrecomputedLoss adult_loss(adult.scheme, adult.dataset, EntropyMeasure());
  const Dataset& d = adult.dataset;
  const GeneralizedTable adult_k1 = Unwrap(K1GreedyExpansion(d, adult_loss, 3));
  ExpectWitness(WitnessK1(d, adult_k1, 4), 1, true, 3);
  const GeneralizedTable adult_kk =
      Unwrap(KKAnonymize(d, adult_loss, 5, K1Algorithm::kGreedyExpansion));
  ExpectWitness(WitnessKK(d, adult_kk, 6), 25, false, 5);
  ExpectWitness(WitnessGlobal1K(d, adult_kk, 2), 47, false, 1);

  // Rows 0..69 fully suppressed: every original has degree >= 70, and the
  // first short table row sits in the second word.
  GeneralizedTable prefix = GeneralizedTable::Identity(art.scheme, a);
  for (size_t t = 0; t < 70; ++t) prefix.SetRecord(t, art.scheme->Suppressed());
  EXPECT_TRUE(Unwrap(Witness1K(a, prefix, 70)).satisfied);
  ExpectWitness(WitnessK1(a, prefix, 3), 70, true, 1);
  ExpectWitness(WitnessKK(a, prefix, 3), 70, true, 1);
  ExpectWitness(WitnessKK(a, prefix, 71), 0, false, 70);
}

TEST(VerifyTest, NotionNamesAndDispatch) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = PairTable(scheme, d);
  for (AnonymityNotion notion :
       {AnonymityNotion::kKAnonymity, AnonymityNotion::kOneK,
        AnonymityNotion::kKOne, AnonymityNotion::kKK,
        AnonymityNotion::kGlobalOneK}) {
    EXPECT_TRUE(Unwrap(SatisfiesNotion(notion, d, t, 2)))
        << AnonymityNotionName(notion);
    EXPECT_NE(std::string(AnonymityNotionName(notion)), "unknown");
  }
}

TEST(VerifyTest, ReportOnProperPairing) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = PairTable(scheme, d);
  const AnonymityReport report = Unwrap(AnalyzeAnonymity(d, t, 2));
  EXPECT_TRUE(report.k_anonymous);
  EXPECT_TRUE(report.one_k);
  EXPECT_TRUE(report.k_one);
  EXPECT_TRUE(report.kk);
  EXPECT_TRUE(report.global_one_k);
  EXPECT_EQ(report.min_left_degree, 2u);
  EXPECT_EQ(report.min_right_degree, 2u);
  EXPECT_EQ(report.min_matches, 2u);
  EXPECT_EQ(report.min_group_size, 2u);
  EXPECT_NE(report.ToString().find("k = 2"), std::string::npos);
}

TEST(VerifyTest, ReportOnIdentity) {
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const AnonymityReport report = Unwrap(AnalyzeAnonymity(d, t, 3));
  EXPECT_FALSE(report.k_anonymous);
  EXPECT_FALSE(report.kk);
  EXPECT_EQ(report.min_group_size, 1u);
  EXPECT_EQ(report.min_matches, 1u);
}

TEST(VerifyTest, KAnonymityImpliesKK) {
  // Proposition 4.5 inclusion on a concrete table.
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t = PairTable(scheme, d);
  ASSERT_TRUE(Unwrap(IsKAnonymous(t, 2)));
  EXPECT_TRUE(Unwrap(IsKKAnonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(Is1KAnonymous(d, t, 2)));
  EXPECT_TRUE(Unwrap(IsK1Anonymous(d, t, 2)));
}


TEST(VerifyTest, UnbalancedTableNeverGlobal) {
  // A published table with fewer records than the dataset cannot satisfy
  // global (1,k): there is no perfect matching to hide in.
  auto scheme = SmallScheme();
  Dataset d = FourRows(*scheme);
  GeneralizedTable t(scheme);
  t.AppendRecord(scheme->Suppressed());
  t.AppendRecord(scheme->Suppressed());
  const AnonymityReport report = Unwrap(AnalyzeAnonymity(d, t, 2));
  EXPECT_TRUE(report.one_k);        // Everyone matches both records.
  EXPECT_TRUE(report.k_one);
  EXPECT_FALSE(report.global_one_k);
  EXPECT_EQ(report.min_matches, 0u);
}

TEST(VerifyTest, KOneOnEmptyDatasetSide) {
  // More generalized records than originals: (k,1) must fail when a
  // record covers fewer than k originals.
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  KANON_CHECK(d.AppendRow({0, 0}).ok());
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  t.AppendRecord(scheme->Identity({7, 1}));  // Covers no original.
  EXPECT_FALSE(Unwrap(IsK1Anonymous(d, t, 1)));
  EXPECT_TRUE(Unwrap(Is1KAnonymous(d, t, 1)));
}

}  // namespace
}  // namespace kanon
