#include "kanon/loss/table_metrics.h"

#include <algorithm>
#include <numeric>

#include "kanon/common/check.h"
#include "kanon/common/distinct_rows.h"

namespace kanon {

std::vector<std::vector<uint32_t>> GroupIdenticalRecords(
    const GeneralizedTable& table) {
  const size_t r = table.num_attributes();
  const DistinctRows records = NumberDistinctRows(
      table.num_rows(), r, [&table](size_t i) { return table.row_data(i); });
  // Hash-grouped, then ordered by record: the order a std::map keyed by
  // GeneralizedRecord (lexicographic) gives.
  std::vector<uint32_t> order(records.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const SetId* x = &records.codes[a * r];
    const SetId* y = &records.codes[b * r];
    return std::lexicographical_compare(x, x + r, y, y + r);
  });
  std::vector<uint32_t> group_of(records.size());
  for (uint32_t g = 0; g < order.size(); ++g) group_of[order[g]] = g;
  std::vector<std::vector<uint32_t>> out(records.size());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    out[group_of[records.id_of_row[i]]].push_back(static_cast<uint32_t>(i));
  }
  return out;
}

uint64_t DiscernibilityMetric(const GeneralizedTable& table) {
  uint64_t total = 0;
  for (const auto& group : GroupIdenticalRecords(table)) {
    total += static_cast<uint64_t>(group.size()) * group.size();
  }
  return total;
}

double ClassificationMetric(const Dataset& dataset,
                            const GeneralizedTable& table) {
  KANON_CHECK(dataset.has_class_column(),
              "ClassificationMetric requires a class column");
  KANON_CHECK(dataset.num_rows() == table.num_rows(), "row count mismatch");
  if (dataset.num_rows() == 0) return 0.0;

  uint64_t penalties = 0;
  const size_t num_classes = dataset.class_domain().size();
  for (const auto& group : GroupIdenticalRecords(table)) {
    std::vector<uint32_t> class_counts(num_classes, 0);
    for (uint32_t row : group) {
      ++class_counts[dataset.class_of(row)];
    }
    const uint32_t majority =
        *std::max_element(class_counts.begin(), class_counts.end());
    penalties += group.size() - majority;
  }
  return static_cast<double>(penalties) /
         static_cast<double>(dataset.num_rows());
}

std::vector<size_t> GroupSizes(const GeneralizedTable& table) {
  std::vector<size_t> sizes;
  for (const auto& group : GroupIdenticalRecords(table)) {
    sizes.push_back(group.size());
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

}  // namespace kanon
