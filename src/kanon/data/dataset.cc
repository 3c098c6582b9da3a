#include "kanon/data/dataset.h"

#include "kanon/common/check.h"

namespace kanon {

Record Dataset::row(size_t row_index) const {
  KANON_CHECK(row_index < num_rows(), "row index out of range");
  return row_view(row_index).ToRecord();
}

Result<Dataset> Dataset::FromCells(Schema schema,
                                   std::vector<ValueCode> cells) {
  const size_t r = schema.num_attributes();
  if (r == 0 ? !cells.empty() : cells.size() % r != 0) {
    return Status::InvalidArgument(
        std::to_string(cells.size()) + " cells do not fill rows of " +
        std::to_string(r) + " attributes");
  }
  std::vector<size_t> sizes(r);
  for (size_t j = 0; j < r; ++j) sizes[j] = schema.attribute(j).size();
  for (size_t row = 0; row < cells.size(); row += r) {
    for (size_t j = 0; j < r; ++j) {
      if (cells[row + j] >= sizes[j]) {
        return Status::OutOfRange("value code " +
                                  std::to_string(cells[row + j]) +
                                  " out of range for attribute '" +
                                  schema.attribute(j).name() + "'");
      }
    }
  }
  Dataset dataset(std::move(schema));
  dataset.cells_ = std::move(cells);
  return dataset;
}

Status Dataset::AppendRow(const Record& record) {
  if (record.size() != num_attributes()) {
    return Status::InvalidArgument(
        "record has " + std::to_string(record.size()) + " values, schema has " +
        std::to_string(num_attributes()) + " attributes");
  }
  for (size_t j = 0; j < record.size(); ++j) {
    if (record[j] >= schema_.attribute(j).size()) {
      return Status::OutOfRange("value code " + std::to_string(record[j]) +
                                " out of range for attribute '" +
                                schema_.attribute(j).name() + "'");
    }
  }
  // Guard on the domain, not on class_codes_: a class column attached to an
  // empty dataset has no codes, yet appending past it would still desync
  // class_codes_.size() from num_rows().
  if (class_domain_.has_value()) {
    return Status::FailedPrecondition(
        "cannot append rows after a class column was attached");
  }
  cells_.insert(cells_.end(), record.begin(), record.end());
  return Status::OK();
}

Status Dataset::AppendRowLabels(const std::vector<std::string>& labels) {
  if (labels.size() != num_attributes()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(labels.size()) + " labels, schema has " +
        std::to_string(num_attributes()) + " attributes");
  }
  Record record(labels.size());
  for (size_t j = 0; j < labels.size(); ++j) {
    KANON_ASSIGN_OR_RETURN(record[j], schema_.attribute(j).CodeOf(labels[j]));
  }
  return AppendRow(record);
}

std::vector<std::vector<uint32_t>> Dataset::ValueCounts() const {
  const size_t r = num_attributes();
  std::vector<std::vector<uint32_t>> counts(r);
  for (size_t j = 0; j < r; ++j) {
    counts[j].assign(schema_.attribute(j).size(), 0);
  }
  for (size_t i = 0; i < num_rows(); ++i) {
    const ValueCode* row = cells_.data() + i * r;
    for (size_t j = 0; j < r; ++j) ++counts[j][row[j]];
  }
  return counts;
}

Status Dataset::SetClassColumn(AttributeDomain domain,
                               std::vector<ValueCode> codes) {
  if (codes.size() != num_rows()) {
    return Status::InvalidArgument(
        "class column has " + std::to_string(codes.size()) +
        " values for " + std::to_string(num_rows()) + " rows");
  }
  for (ValueCode c : codes) {
    if (c >= domain.size()) {
      return Status::OutOfRange("class code out of range");
    }
  }
  class_domain_ = std::move(domain);
  class_codes_ = std::move(codes);
  return Status::OK();
}

const AttributeDomain& Dataset::class_domain() const {
  KANON_CHECK(class_domain_.has_value(), "dataset has no class column");
  return *class_domain_;
}

ValueCode Dataset::class_of(size_t row) const {
  KANON_CHECK(class_domain_.has_value(), "dataset has no class column");
  KANON_CHECK(row < class_codes_.size(), "class row index out of range");
  return class_codes_[row];
}

Dataset Dataset::Head(size_t n) const {
  KANON_CHECK(n <= num_rows(), "Head(n) requires n <= num_rows()");
  Dataset out(schema_);
  const size_t r = num_attributes();
  out.cells_.assign(cells_.begin(), cells_.begin() + n * r);
  if (class_domain_.has_value()) {
    out.class_domain_ = class_domain_;
    out.class_codes_.assign(class_codes_.begin(), class_codes_.begin() + n);
  }
  return out;
}

}  // namespace kanon
