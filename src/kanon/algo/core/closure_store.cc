#include "kanon/algo/core/closure_store.h"

namespace kanon {

ClosureStore::Id ClosureStore::Intern(const SetId* record) {
  bool fresh = false;
  const Id id = rows_.Intern(record, &fresh);
  if (fresh) {
    costs_.push_back(loss_.RecordCost(record));
  } else {
    ++hits_;
  }
  return id;
}

ClosureStore::Id ClosureStore::InternJoin(Id a, Id b) {
  const GeneralizationScheme& scheme = loss_.scheme();
  const SetId* row_a = row(a);
  const SetId* row_b = row(b);
  for (size_t j = 0; j < scratch_.size(); ++j) {
    scratch_[j] = scheme.hierarchy(j).Join(row_a[j], row_b[j]);
  }
  return Intern(scratch_.data());
}

ClosureStore::Id ClosureStore::InternClosureOfRows(
    const Dataset& dataset, const std::vector<uint32_t>& rows) {
  loss_.scheme().ClosureOfRows(dataset, rows, scratch_.data());
  return Intern(scratch_.data());
}

std::vector<ClosureStore::Id> ClosureStore::InternTable(
    const GeneralizedTable& table) {
  std::vector<Id> ids;
  ids.reserve(table.num_rows());
  for (size_t t = 0; t < table.num_rows(); ++t) {
    ids.push_back(Intern(table.row_data(t)));
  }
  return ids;
}

}  // namespace kanon
