#include "kanon/anonymity/diversity.h"

#include <algorithm>
#include <set>

#include "kanon/common/check.h"
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

}  // namespace kanon
