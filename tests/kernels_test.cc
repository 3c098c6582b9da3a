// LossKernels pinned bit for bit against the scalar definition of the cost
// of a union of two generalized records: EntryCost(j, Join(a_j, b_j)) added
// in ascending attribute order, then divided by r. Every kernel (the
// dataset sweep, the pairwise union cost, the joined-cost table and the
// blocked table sweep) must reproduce exactly those bits, on ART, on Adult
// and on a one-row, one-attribute instance.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
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

TEST_P(KernelsTest, JoinedCostSweepMatchesScalar) {
  // out[v] prices row v's identity closure, records_[v], against the anchor.
  // Anchored at an identity closure (a < n) that is the pairwise closure
  // cost d({R_a, R_v}), and out[a] is d({R_a}).
  const size_t n = dataset().num_rows();
  std::vector<double> out(n);
  for (size_t a : AnchorIndices(records_.size())) {
    const SetId* anchor = records_[a].data();
    kernels_->JoinedCostSweep(anchor, out.data());
    for (size_t v = 0; v < n; ++v) {
      ASSERT_EQ(Bits(out[v]),
                Bits(ScalarUnionCost(*loss_, anchor, records_[v].data())))
          << "anchor " << a << ", row " << v;
    }
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
