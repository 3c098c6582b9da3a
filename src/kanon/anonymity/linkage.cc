#include "kanon/anonymity/linkage.h"

#include <algorithm>

#include "kanon/common/check.h"
#include "kanon/generalization/consistency_index.h"

namespace kanon {

Result<std::vector<uint32_t>> LinkCandidates(
    const GeneralizedTable& table, const std::vector<ValueCode>& record) {
  const GeneralizationScheme& scheme = table.scheme();
  const size_t r = scheme.num_attributes();
  if (record.size() != r) {
    return Status::InvalidArgument("record has " +
                                   std::to_string(record.size()) +
                                   " values; expected " + std::to_string(r));
  }
  for (size_t j = 0; j < r; ++j) {
    if (record[j] != kNoValue &&
        record[j] >= scheme.schema().attribute(j).size()) {
      return Status::OutOfRange("value for attribute '" +
                                scheme.schema().attribute(j).name() +
                                "' out of its domain");
    }
  }
  const ConsistencyIndex index(table);
  std::vector<uint64_t> consistent_rows(index.num_words());
  std::vector<uint32_t> candidates;
  candidates.reserve(index.Consistent(record, consistent_rows.data()));
  index.ForEachRow(consistent_rows.data(),
                   [&](uint32_t t) { candidates.push_back(t); });
  return candidates;
}

Result<std::vector<uint32_t>> LinkCandidatesByLabel(
    const GeneralizedTable& table, const std::vector<std::string>& labels) {
  const Schema& schema = table.scheme().schema();
  if (labels.size() != schema.num_attributes()) {
    return Status::InvalidArgument("label record has " +
                                   std::to_string(labels.size()) +
                                   " values; expected " +
                                   std::to_string(schema.num_attributes()));
  }
  std::vector<ValueCode> record(labels.size(), kNoValue);
  for (size_t j = 0; j < labels.size(); ++j) {
    if (labels[j].empty() || labels[j] == "*") continue;
    KANON_ASSIGN_OR_RETURN(record[j], schema.attribute(j).CodeOf(labels[j]));
  }
  return LinkCandidates(table, record);
}

size_t MinLinkageSetSize(const Dataset& dataset,
                         const GeneralizedTable& table) {
  KANON_CHECK(dataset.num_attributes() == table.num_attributes(),
              "dataset/table arity mismatch");
  if (dataset.num_rows() == 0) return 0;
  const ConsistencyIndex index(table);
  std::vector<uint64_t> consistent_rows(index.num_words());
  size_t min_size = table.num_rows();
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) {
    min_size = std::min(
        min_size, index.Consistent(dataset.row_view(i), consistent_rows.data()));
  }
  return min_size;
}

}  // namespace kanon
