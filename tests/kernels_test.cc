// LossKernels pinned bit for bit against the scalar definition of the cost
// of a union of two generalized records: EntryCost(j, Join(a_j, b_j)) added
// in ascending attribute order, then divided by r. Every kernel (the
// nearest-row sweep, the pairwise union cost, the joined-cost table and the
// blocked table sweep) must reproduce exactly those bits, and the cover
// table those of PrecomputedLoss::CoverCost, on ART, on Adult
// and on a one-row, one-attribute instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/kernels.h"
#include "kanon/loss/lm_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::Unwrap;

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

double ScalarUnionCost(const PrecomputedLoss& loss, const SetId* a,
                       const SetId* b) {
  const GeneralizationScheme& scheme = loss.scheme();
  const size_t r = scheme.num_attributes();
  double total = 0.0;
  for (size_t j = 0; j < r; ++j) {
    total += loss.EntryCost(j, scheme.hierarchy(j).Join(a[j], b[j]));
  }
  return total / static_cast<double>(r);
}

enum class Instance { kArt, kAdult, kOneCell };

// ART and Adult with 700 rows each, and one row of one attribute whose
// four values nest in two intervals.
Workload MakeWorkload(Instance instance) {
  switch (instance) {
    case Instance::kArt:
      return Unwrap(MakeArtWorkload(700, 20080407));
    case Instance::kAdult:
      return Unwrap(MakeAdultWorkload(700, 7));
    case Instance::kOneCell:
      break;
  }
  Schema schema =
      Unwrap(Schema::Create({AttributeDomain::IntegerRange("a", 0, 3)}));
  GeneralizationScheme scheme = Unwrap(GeneralizationScheme::Create(
      schema, {Unwrap(Hierarchy::Intervals(4, {2}))}));
  Dataset dataset(schema);
  KANON_CHECK(dataset.AppendRow({2}).ok());
  return Workload{
      "one-cell", std::move(dataset),
      std::make_shared<const GeneralizationScheme>(std::move(scheme))};
}

// The records the kernels are priced over: every row's identity closure,
// then the closures of row pairs (u, 3u + 1 mod n), then the fully
// suppressed record. On ART and Adult that is more than one block of
// TableCostSweep.
std::vector<GeneralizedRecord> Records(const Dataset& dataset,
                                       const GeneralizationScheme& scheme) {
  const size_t n = dataset.num_rows();
  std::vector<GeneralizedRecord> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(scheme.Identity(dataset.row_view(i)));
  }
  for (size_t u = 0; u < n; ++u) {
    const uint32_t v = static_cast<uint32_t>((3 * u + 1) % n);
    out.push_back(scheme.ClosureOfRows(dataset, {static_cast<uint32_t>(u), v}));
  }
  out.push_back(scheme.Suppressed());
  return out;
}

// Anchors: a sample of identity closures, a sample of pair closures, and
// the suppressed record.
std::vector<size_t> AnchorIndices(size_t num_records) {
  std::vector<size_t> out;
  for (size_t i = 0; i < num_records; i += 37) out.push_back(i);
  out.push_back(num_records - 1);
  return out;
}

class KernelsTest : public ::testing::TestWithParam<Instance> {
 protected:
  void SetUp() override {
    workload_ = MakeWorkload(GetParam());
    // Entropy on ART and the one cell, LM on Adult.
    if (GetParam() == Instance::kAdult) {
      measure_ = std::make_unique<LmMeasure>();
    } else {
      measure_ = std::make_unique<EntropyMeasure>();
    }
    loss_ = std::make_unique<PrecomputedLoss>(workload_.scheme,
                                              workload_.dataset, *measure_);
    kernels_ = std::make_unique<LossKernels>(workload_.dataset, *loss_);
    records_ = Records(workload_.dataset, *workload_.scheme);
  }

  const Dataset& dataset() const { return workload_.dataset; }
  const GeneralizationScheme& scheme() const { return *workload_.scheme; }

  Workload workload_;
  std::unique_ptr<LossMeasure> measure_;
  std::unique_ptr<PrecomputedLoss> loss_;
  std::unique_ptr<LossKernels> kernels_;
  std::vector<GeneralizedRecord> records_;
};

// The scalar definition of NearestRows: every row not in `skip`, priced
// ScalarUnionCost(anchor, identity of R_v) − base, sorted lexicographically
// by (cost, row), the first m kept.
std::vector<std::pair<double, uint32_t>> ScalarNearestRows(
    const PrecomputedLoss& loss, const std::vector<GeneralizedRecord>& rows,
    const SetId* anchor, double base, const std::vector<uint64_t>& skip,
    size_t m) {
  std::vector<std::pair<double, uint32_t>> all;
  for (uint32_t v = 0; v < rows.size(); ++v) {
    if ((skip[v / 64] >> (v % 64)) & 1) continue;
    all.emplace_back(ScalarUnionCost(loss, anchor, rows[v].data()) - base, v);
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(m, all.size()));
  return all;
}

void ExpectSameRows(
    const std::vector<LossKernels::NearestRow>& got,
    const std::vector<std::pair<double, uint32_t>>& want,
    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].second) << where << ", rank " << i;
    EXPECT_EQ(Bits(got[i].cost), Bits(want[i].first))
        << where << ", rank " << i;
  }
}

TEST_P(KernelsTest, NearestRowsMatchesScalar) {
  // Rows are priced by their identity closures, records_[v] for v < n. An
  // anchor a < n makes the costs the pairwise closure costs d({R_a, R_v}).
  constexpr size_t kK = 10;
  const size_t n = dataset().num_rows();
  const size_t words = (n + 63) / 64;
  const std::vector<GeneralizedRecord> rows(records_.begin(),
                                            records_.begin() + n);
  std::vector<std::pair<std::string, std::vector<uint64_t>>> masks;
  masks.emplace_back("empty", std::vector<uint64_t>(words, 0));
  std::vector<uint64_t> random(words, 0);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t v = 0; v < n; ++v) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    if (state & 1) random[v / 64] |= uint64_t{1} << (v % 64);
  }
  masks.emplace_back("random", random);
  std::vector<uint64_t> full(words, 0);
  for (size_t v = 0; v < n; ++v) full[v / 64] |= uint64_t{1} << (v % 64);
  masks.emplace_back("full", full);
  std::vector<LossKernels::NearestRow> got;
  for (size_t a : AnchorIndices(records_.size())) {
    const SetId* anchor = records_[a].data();
    // All but one row: the one left is the anchor's own row, or row 0.
    std::vector<uint64_t> all_but_one = full;
    const size_t kept = a < n ? a : 0;
    all_but_one[kept / 64] &= ~(uint64_t{1} << (kept % 64));
    masks.emplace_back("all but one", all_but_one);
    for (const double base : {0.0, loss_->RecordCost(anchor)}) {
      for (const size_t m : {size_t{1}, size_t{2}, kK - 1}) {
        for (const auto& [name, skip] : masks) {
          kernels_->NearestRows(anchor, base, skip.data(), m, &got);
          ExpectSameRows(got,
                         ScalarNearestRows(*loss_, rows, anchor, base, skip, m),
                         "anchor " + std::to_string(a) + ", m " +
                             std::to_string(m) + ", skip " + name);
          if (name == "full") {
            EXPECT_TRUE(got.empty());
          }
        }
      }
    }
    masks.pop_back();
  }
}

TEST_P(KernelsTest, UnionAndTableCostsMatchScalar) {
  const size_t r = scheme().num_attributes();
  const size_t count = records_.size();
  // Attribute-major copy of the records, as TableCostSweep reads them.
  std::vector<SetId> columns(r * count);
  for (size_t s = 0; s < count; ++s) {
    for (size_t j = 0; j < r; ++j) columns[j * count + s] = records_[s][j];
  }
  std::vector<double> table(kernels_->joined_table_size());
  std::vector<double> swept(count);
  for (size_t a : AnchorIndices(count)) {
    const SetId* anchor = records_[a].data();
    kernels_->FillJoinedCostTable(anchor, table.data());
    kernels_->TableCostSweep(table.data(), columns.data(), count,
                             swept.data());
    for (size_t s = 0; s < count; ++s) {
      const SetId* b = records_[s].data();
      const uint64_t want = Bits(ScalarUnionCost(*loss_, anchor, b));
      ASSERT_EQ(Bits(kernels_->UnionCost(anchor, b)), want)
          << "anchor " << a << ", record " << s;
      ASSERT_EQ(Bits(kernels_->TableUnionCost(table.data(), b)), want)
          << "anchor " << a << ", record " << s;
      ASSERT_EQ(Bits(swept[s]), want) << "anchor " << a << ", record " << s;
    }
  }
}

TEST_P(KernelsTest, CoverTableMatchesCoverCost) {
  // Algorithm 5 prices "generalize record t to cover R_x" through a table
  // filled for x; it must equal CoverCost / r, bit for bit.
  const size_t n = dataset().num_rows();
  const double r = static_cast<double>(scheme().num_attributes());
  std::vector<double> table(kernels_->joined_table_size());
  for (size_t x = 0; x < n; x += 37) {
    const RowView record = dataset().row_view(x);
    kernels_->FillCoverCostTable(record, table.data());
    for (size_t t = 0; t < records_.size(); ++t) {
      const SetId* row = records_[t].data();
      ASSERT_EQ(Bits(kernels_->TableUnionCost(table.data(), row)),
                Bits(loss_->CoverCost(row, record) / r))
          << "record " << x << ", row " << t;
    }
  }
}

// Costs chosen so that two rows' sums differ but their costs, less the
// base c(A) = 2^-53, round to one double: c(B) − c(A) and c(D) − c(A) are
// both 1 + 2^-51. Row 2 (B, the larger sum) must win on its lower index;
// a kernel that ranked the undivided sums would pick row 3 (D).
class RoundingTieMeasure : public LossMeasure {
 public:
  std::string name() const override { return "rounding-tie"; }
  double SetCost(const Hierarchy& h, const std::vector<uint32_t>& /*counts*/,
                 SetId set) const override {
    switch (h.SizeOf(set)) {
      case 1:
        return 0.0;
      case 2:  // A = {0, 1}.
        return 0x1p-53;
      case 3:  // B = {0, 1, 2} or D = {0, 1, 3}.
        return h.Contains(set, 2) ? 1.0 + 3 * 0x1p-52 : 1.0 + 2 * 0x1p-52;
      default:
        return 2.0;
    }
  }
};

TEST(NearestRowsTest, RoundedTiesGoToTheLowerIndex) {
  AttributeDomain v = AttributeDomain::IntegerRange("v", 0, 3);
  Hierarchy h =
      Unwrap(Hierarchy::FromGroups(4, {{0, 1}, {0, 1, 2}, {0, 1, 3}}));
  auto scheme = std::make_shared<const GeneralizationScheme>(Unwrap(
      GeneralizationScheme::Create(Unwrap(Schema::Create({v})), {h})));
  Dataset dataset(scheme->schema());
  for (ValueCode value = 0; value < 4; ++value) {
    KANON_CHECK(dataset.AppendRow(Record{value}).ok());
  }
  const PrecomputedLoss loss(scheme, dataset, RoundingTieMeasure());
  const LossKernels kernels(dataset, loss);
  const SetId a = Unwrap(h.IdOf(ValueSet::Of(4, {0, 1})));
  const double base = loss.EntryCost(0, a);
  const double tie = 1.0 + 0x1p-51;
  ASSERT_GT(loss.EntryCost(0, Unwrap(h.IdOf(ValueSet::Of(4, {0, 1, 2})))),
            loss.EntryCost(0, Unwrap(h.IdOf(ValueSet::Of(4, {0, 1, 3})))));
  const std::vector<uint64_t> covered = {0b0011};
  std::vector<LossKernels::NearestRow> got;
  kernels.NearestRows(&a, base, covered.data(), 1, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].row, 2u);
  EXPECT_EQ(Bits(got[0].cost), Bits(tie));
  kernels.NearestRows(&a, base, covered.data(), 2, &got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].row, 2u);
  EXPECT_EQ(got[1].row, 3u);
  EXPECT_EQ(Bits(got[1].cost), Bits(tie));
}

INSTANTIATE_TEST_SUITE_P(Instances, KernelsTest,
                         ::testing::Values(Instance::kArt, Instance::kAdult,
                                           Instance::kOneCell),
                         [](const ::testing::TestParamInfo<Instance>& info) {
                           switch (info.param) {
                             case Instance::kArt:
                               return std::string("Art");
                             case Instance::kAdult:
                               return std::string("Adult");
                             case Instance::kOneCell:
                               break;
                           }
                           return std::string("OneCell");
                         });

}  // namespace
}  // namespace kanon
