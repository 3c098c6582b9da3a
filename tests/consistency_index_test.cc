// ConsistencyIndex against the scalar reference, GeneralizedTable's
// ConsistentPair: after every step of a random coarsening sequence, each
// original's consistent rows and the consistency graph built on the index
// must equal the double loop's, edge for edge and in order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kanon/common/rng.h"
#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/generalization/consistency_index.h"
#include "kanon/graph/consistency_graph.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::Unwrap;

// Rows of `table` consistent with original `i`, by the scalar double loop.
std::vector<uint32_t> ScalarRows(const Dataset& d, const GeneralizedTable& t,
                                 uint32_t i) {
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < t.num_rows(); ++row) {
    if (t.ConsistentPair(d, i, row)) rows.push_back(row);
  }
  return rows;
}

// Every original's consistent set, the mask's padding bits and the graph's
// adjacency lists against the scalar loop.
void ExpectMatchesScalar(const Dataset& d, const GeneralizedTable& t,
                         const ConsistencyIndex& index,
                         const std::string& where) {
  const BipartiteGraph graph = BuildConsistencyGraph(d, t);
  ASSERT_EQ(graph.num_left(), d.num_rows()) << where;
  ASSERT_EQ(graph.num_right(), t.num_rows()) << where;
  std::vector<uint64_t> mask(index.num_words());
  for (uint32_t i = 0; i < d.num_rows(); ++i) {
    const std::vector<uint32_t> expected = ScalarRows(d, t, i);
    const size_t count = index.Consistent(d.row_view(i), mask.data());
    std::vector<uint32_t> got;
    index.ForEachRow(mask.data(), [&](uint32_t row) { got.push_back(row); });
    ASSERT_EQ(got, expected) << where << ", original " << i;
    ASSERT_EQ(count, expected.size()) << where << ", original " << i;
    ASSERT_EQ(graph.Neighbors(i), expected) << where << ", original " << i;
  }
}

// A random coarsening sequence: each step widens one row to cover one
// original (GeneralizeToCover) or, now and then, suppresses it fully, and
// refreshes that row of the index.
void RunSequence(const Dataset& d,
                 std::shared_ptr<const GeneralizationScheme> scheme,
                 uint64_t seed, const std::string& name) {
  const size_t n = d.num_rows();
  Rng rng(seed);
  GeneralizedTable table = GeneralizedTable::Identity(scheme, d);
  // Start with a few fully suppressed rows (row 0 always).
  table.SetRecord(0, scheme->Suppressed());
  for (size_t s = 0; s < n / 16; ++s) {
    table.SetRecord(rng.NextBounded(n), scheme->Suppressed());
  }
  ConsistencyIndex index(table);
  ASSERT_EQ(index.num_rows(), n);
  ASSERT_EQ(index.num_words(), (n + 63) / 64);
  ExpectMatchesScalar(d, table, index, name + " initial");
  const size_t steps = n < 8 ? 4 : 12;
  for (size_t step = 0; step < steps; ++step) {
    // Several coarsenings between checks, so rows move more than once.
    for (size_t m = 0; m < 1 + n / 8; ++m) {
      const size_t row = rng.NextBounded(n);
      if (rng.NextBounded(10) == 0) {
        table.SetRecord(row, scheme->Suppressed());
      } else {
        table.GeneralizeToCover(row, d.row_view(rng.NextBounded(n)));
      }
      index.Refresh(table, row);
    }
    ExpectMatchesScalar(d, table, index, name + " step " +
                                             std::to_string(step));
    // A fresh index over the coarsened table agrees with the refreshed one.
    const ConsistencyIndex fresh(table);
    std::vector<uint64_t> a(index.num_words());
    std::vector<uint64_t> b(index.num_words());
    for (uint32_t i = 0; i < n; ++i) {
      index.Consistent(d.row_view(i), a.data());
      fresh.Consistent(d.row_view(i), b.data());
      ASSERT_EQ(a, b) << name << " original " << i;
    }
  }
}

const size_t kSizes[] = {1, 63, 64, 65, 257};

TEST(ConsistencyIndexTest, ArtMatchesScalarLoop) {
  for (size_t n : kSizes) {
    Workload w = Unwrap(MakeArtWorkload(n, 1000 + n));
    RunSequence(w.dataset, w.scheme, n, "ART n=" + std::to_string(n));
  }
}

TEST(ConsistencyIndexTest, AdultMatchesScalarLoop) {
  for (size_t n : kSizes) {
    Workload w = Unwrap(MakeAdultWorkload(n, 2000 + n));
    RunSequence(w.dataset, w.scheme, 7 * n, "Adult n=" + std::to_string(n));
  }
}

TEST(ConsistencyIndexTest, OneAttributeSchemeMatchesScalarLoop) {
  AttributeDomain zip = AttributeDomain::IntegerRange("zip", 0, 15);
  Schema schema = Unwrap(Schema::Create({zip}));
  Hierarchy h = Unwrap(Hierarchy::Intervals(16, {2, 4, 8}));
  auto scheme = std::make_shared<const GeneralizationScheme>(
      Unwrap(GeneralizationScheme::Create(schema, {std::move(h)})));
  for (size_t n : kSizes) {
    Rng rng(n);
    Dataset d(scheme->schema());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          d.AppendRow({static_cast<ValueCode>(rng.NextBounded(16))}).ok());
    }
    RunSequence(d, scheme, 3 * n, "one attribute n=" + std::to_string(n));
  }
}

TEST(ConsistencyIndexTest, WildcardsSkipTheirAttribute) {
  Workload w = Unwrap(MakeArtWorkload(65, 7));
  const Dataset& d = w.dataset;
  GeneralizedTable table = GeneralizedTable::Identity(w.scheme, d);
  for (uint32_t t = 0; t < d.num_rows(); t += 3) {
    table.GeneralizeToCover(t, d.row_view((t * 17 + 5) % d.num_rows()));
  }
  const ConsistencyIndex index(table);
  const size_t r = d.num_attributes();
  std::vector<uint64_t> mask(index.num_words());

  // All wildcards: every row, and no padding bit past row n-1.
  const std::vector<ValueCode> unknown(r, kNoValue);
  EXPECT_EQ(index.Consistent(unknown, mask.data()), d.num_rows());
  EXPECT_EQ(mask.back(), uint64_t{1});  // 65 rows: one bit in word 1.

  // One known attribute at a time against a direct Contains scan.
  for (uint32_t i = 0; i < d.num_rows(); i += 7) {
    for (size_t j = 0; j < r; ++j) {
      std::vector<ValueCode> query(r, kNoValue);
      query[j] = d.at(i, j);
      std::vector<uint32_t> expected;
      for (uint32_t t = 0; t < table.num_rows(); ++t) {
        if (w.scheme->hierarchy(j).Contains(table.at(t, j), query[j])) {
          expected.push_back(t);
        }
      }
      EXPECT_EQ(index.Consistent(query, mask.data()), expected.size());
      std::vector<uint32_t> got;
      index.ForEachRow(mask.data(), [&](uint32_t t) { got.push_back(t); });
      EXPECT_EQ(got, expected) << "original " << i << " attribute " << j;
    }
  }
}

TEST(ConsistencyIndexTest, EmptyTable) {
  Workload w = Unwrap(MakeArtWorkload(4, 3));
  const GeneralizedTable table(w.scheme);
  const ConsistencyIndex index(table);
  EXPECT_EQ(index.num_rows(), 0u);
  EXPECT_EQ(index.num_words(), 0u);
  EXPECT_EQ(index.Consistent(w.dataset.row_view(0), nullptr), 0u);
  const BipartiteGraph graph = BuildConsistencyGraph(w.dataset, table);
  EXPECT_EQ(graph.num_edges(), 0u);
}

// RowCoverIndex, the dual query, against GeneralizationScheme::Consistent:
// for identity, suppressed and closure records, the covered rows, their
// count and clear padding bits.
void ExpectCoverMatchesScalar(const Dataset& d,
                              const GeneralizationScheme& scheme,
                              uint64_t seed, const std::string& name) {
  const size_t n = d.num_rows();
  const RowCoverIndex cover(d, scheme);
  ASSERT_EQ(cover.num_words(), (n + 63) / 64);
  Rng rng(seed);
  std::vector<GeneralizedRecord> records = {scheme.Suppressed()};
  for (size_t q = 0; q < 24; ++q) {
    std::vector<uint32_t> rows(1 + q % 4);
    for (uint32_t& row : rows) row = rng.NextBounded(n);
    records.push_back(scheme.ClosureOfRows(d, rows));
  }
  std::vector<uint64_t> mask(cover.num_words());
  for (size_t q = 0; q < records.size(); ++q) {
    const size_t count = cover.Covered(records[q].data(), mask.data());
    size_t expected = 0;
    for (uint32_t t = 0; t < n; ++t) {
      const bool consistent = scheme.Consistent(d.row_view(t), records[q]);
      expected += consistent ? 1 : 0;
      ASSERT_EQ(ConsistencyIndex::Has(mask.data(), t), consistent)
          << name << " record " << q << " row " << t;
    }
    EXPECT_EQ(count, expected) << name << " record " << q;
    if (n % 64 != 0) {
      EXPECT_EQ(mask.back() >> (n % 64), 0u) << name << " record " << q;
    }
  }
}

TEST(ConsistencyIndexTest, RowCoverMatchesScalarConsistency) {
  for (size_t n : kSizes) {
    const Workload art = Unwrap(MakeArtWorkload(n, 4000 + n));
    ExpectCoverMatchesScalar(art.dataset, *art.scheme, n,
                             "ART n=" + std::to_string(n));
    const Workload adult = Unwrap(MakeAdultWorkload(n, 5000 + n));
    ExpectCoverMatchesScalar(adult.dataset, *adult.scheme, n,
                             "Adult n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace kanon
