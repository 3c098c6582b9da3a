#include "kanon/anonymity/diversity.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "kanon/common/check.h"
#include "kanon/generalization/consistency_index.h"
#include "kanon/loss/table_metrics.h"

namespace kanon {

namespace {

void CheckArgs(const Dataset& dataset, const GeneralizedTable& table) {
  KANON_CHECK(dataset.has_class_column(),
              "ℓ-diversity requires a class column");
  KANON_CHECK(dataset.num_rows() == table.num_rows(), "row count mismatch");
}

}  // namespace

bool IsDistinctLDiverse(const Dataset& dataset, const GeneralizedTable& table,
                        size_t l) {
  KANON_CHECK(l >= 1, "l must be positive");
  CheckArgs(dataset, table);
  return DistinctDiversity(dataset, table) >= l;
}

bool IsEntropyLDiverse(const Dataset& dataset, const GeneralizedTable& table,
                       double l) {
  KANON_CHECK(l >= 1.0, "l must be at least 1");
  CheckArgs(dataset, table);
  const double threshold = std::log2(l);
  const size_t num_classes = dataset.class_domain().size();
  for (const auto& group : GroupIdenticalRecords(table)) {
    std::vector<size_t> counts(num_classes, 0);
    for (uint32_t row : group) {
      ++counts[dataset.class_of(row)];
    }
    double entropy = 0.0;
    for (size_t c : counts) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) /
                       static_cast<double>(group.size());
      entropy -= p * std::log2(p);
    }
    if (entropy < threshold - 1e-12) return false;
  }
  return true;
}

size_t DistinctDiversity(const Dataset& dataset,
                         const GeneralizedTable& table) {
  CheckArgs(dataset, table);
  if (table.num_rows() == 0) return 0;
  size_t min_distinct = SIZE_MAX;
  for (const auto& group : GroupIdenticalRecords(table)) {
    std::set<ValueCode> classes;
    for (uint32_t row : group) {
      classes.insert(dataset.class_of(row));
    }
    min_distinct = std::min(min_distinct, classes.size());
  }
  return min_distinct;
}

bool IsConsistencyLDiverse(const Dataset& dataset,
                           const GeneralizedTable& table, size_t l) {
  KANON_CHECK(l >= 1, "l must be positive");
  CheckArgs(dataset, table);
  const ConsistencyIndex index(table);
  std::vector<uint64_t> consistent_rows(index.num_words());
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) {
    index.Consistent(dataset.row_view(i), consistent_rows.data());
    std::set<ValueCode> classes;
    index.ForEachRow(consistent_rows.data(), [&](uint32_t t) {
      if (classes.size() < l) classes.insert(dataset.class_of(t));
    });
    if (classes.size() < l) return false;
  }
  return true;
}

}  // namespace kanon
