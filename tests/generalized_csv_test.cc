#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "kanon/algo/anonymizer.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/loss/entropy_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

TEST(GeneralizedCsvTest, WritesCellsInPublishedFormat) {
  auto scheme = SmallScheme();
  Dataset d(scheme->schema());
  ASSERT_TRUE(d.AppendRow({0, 0}).ok());
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const Hierarchy& zip = scheme->hierarchy(0);
  t.SetRecord(0, {zip.Join(zip.LeafOf(0), zip.LeafOf(1)),
                  scheme->hierarchy(1).FullSetId()});
  std::ostringstream out;
  ASSERT_TRUE(WriteGeneralizedCsv(t, out).ok());
  EXPECT_EQ(out.str(), "zip,sex\n{0;1},*\n");
}

TEST(GeneralizedCsvTest, RoundTripExact) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 40, 3);
  PrecomputedLoss loss(scheme, d, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 4;
  config.method = AnonymizationMethod::kKKGreedyExpansion;
  AnonymizationResult result = Unwrap(Anonymize(d, loss, config));

  std::ostringstream out;
  ASSERT_TRUE(WriteGeneralizedCsv(result.table, out).ok());
  std::istringstream in(out.str());
  GeneralizedTable back = Unwrap(ReadGeneralizedCsv(scheme, in));
  ASSERT_EQ(back.num_rows(), result.table.num_rows());
  for (size_t i = 0; i < back.num_rows(); ++i) {
    EXPECT_EQ(back.record(i), result.table.record(i)) << "row " << i;
  }
}

TEST(GeneralizedCsvTest, ReadRejectsNonPermissibleSubset) {
  auto scheme = SmallScheme();
  // {0;2} spans two different bands — not permissible in the hierarchy.
  std::istringstream in("zip,sex\n{0;2},M\n");
  Result<GeneralizedTable> t = ReadGeneralizedCsv(scheme, in);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("not permissible"), std::string::npos);
}

TEST(GeneralizedCsvTest, ReadRejectsUnknownLabelAndBadHeader) {
  auto scheme = SmallScheme();
  {
    std::istringstream in("zip,sex\n9,M\n");
    EXPECT_FALSE(ReadGeneralizedCsv(scheme, in).ok());
  }
  {
    std::istringstream in("sex,zip\nM,0\n");
    EXPECT_FALSE(ReadGeneralizedCsv(scheme, in).ok());
  }
  {
    std::istringstream in("");
    EXPECT_FALSE(ReadGeneralizedCsv(scheme, in).ok());
  }
  {
    std::istringstream in("zip,sex\n0\n");
    EXPECT_FALSE(ReadGeneralizedCsv(scheme, in).ok());
  }
}

TEST(GeneralizedCsvTest, StarParsesAsFullDomain) {
  auto scheme = SmallScheme();
  std::istringstream in("zip,sex\n*,F\n");
  GeneralizedTable t = Unwrap(ReadGeneralizedCsv(scheme, in));
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0), scheme->hierarchy(0).FullSetId());
  EXPECT_EQ(scheme->hierarchy(1).SizeOf(t.at(0, 1)), 1u);
}

TEST(GeneralizedCsvTest, FileHelpers) {
  auto scheme = SmallScheme();
  Dataset d = SmallRandomDataset(*scheme, 10, 4);
  GeneralizedTable t = GeneralizedTable::Identity(scheme, d);
  const char* path = "/tmp/kanon_gen_csv_test.csv";
  ASSERT_TRUE(WriteGeneralizedCsvFile(t, path).ok());
  std::ifstream file(path);
  GeneralizedTable back = Unwrap(ReadGeneralizedCsv(scheme, file));
  EXPECT_TRUE(back == t);
  std::remove(path);
  EXPECT_FALSE(WriteGeneralizedCsvFile(t, "/nonexistent/x.csv").ok());
}

}  // namespace
}  // namespace kanon
