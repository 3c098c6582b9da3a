#include "kanon/generalization/generalized_table.h"

namespace kanon {

Result<GeneralizedTable> GeneralizedTable::FromCells(
    std::shared_ptr<const GeneralizationScheme> scheme,
    std::vector<SetId> cells) {
  GeneralizedTable table(std::move(scheme));
  const size_t r = table.num_attributes();
  if (r == 0 || cells.size() % r != 0) {
    return Status::InvalidArgument(
        std::to_string(cells.size()) + " cells do not fill rows of " +
        std::to_string(r) + " attributes");
  }
  std::vector<size_t> num_sets(r);
  for (size_t j = 0; j < r; ++j) {
    num_sets[j] = table.scheme_->hierarchy(j).num_sets();
  }
  for (size_t row = 0; row < cells.size(); row += r) {
    for (size_t j = 0; j < r; ++j) {
      if (cells[row + j] >= num_sets[j]) {
        return Status::OutOfRange(
            "row " + std::to_string(row / r) + ": set id " +
            std::to_string(cells[row + j]) +
            " is outside the hierarchy of attribute '" +
            table.scheme_->schema().attribute(j).name() + "'");
      }
    }
  }
  table.cells_ = std::move(cells);
  return table;
}

GeneralizedTable GeneralizedTable::Identity(
    std::shared_ptr<const GeneralizationScheme> scheme,
    const Dataset& dataset) {
  KANON_CHECK(scheme != nullptr, "scheme must not be null");
  KANON_CHECK(dataset.num_attributes() == scheme->num_attributes(),
              "dataset arity mismatch");
  GeneralizedTable table(std::move(scheme));
  const size_t r = dataset.num_attributes();
  table.cells_.resize(dataset.num_rows() * r);
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    for (size_t j = 0; j < r; ++j) {
      table.cells_[i * r + j] =
          table.scheme_->hierarchy(j).LeafOf(dataset.at(i, j));
    }
  }
  return table;
}

GeneralizedRecord GeneralizedTable::record(size_t row) const {
  KANON_CHECK(row < num_rows(), "row index out of range");
  const size_t r = num_attributes();
  return GeneralizedRecord(cells_.begin() + row * r,
                           cells_.begin() + (row + 1) * r);
}

void GeneralizedTable::SetRecord(size_t row, const GeneralizedRecord& record) {
  KANON_CHECK(row < num_rows(), "row index out of range");
  KANON_CHECK(record.size() == num_attributes(), "record arity mismatch");
  const size_t r = num_attributes();
  for (size_t j = 0; j < r; ++j) {
    KANON_DCHECK(record[j] < scheme_->hierarchy(j).num_sets());
    cells_[row * r + j] = record[j];
  }
}

void GeneralizedTable::AppendRecord(const GeneralizedRecord& record) {
  KANON_CHECK(record.size() == num_attributes(), "record arity mismatch");
  for (size_t j = 0; j < record.size(); ++j) {
    KANON_CHECK(record[j] < scheme_->hierarchy(j).num_sets(),
                "set id out of range");
  }
  cells_.insert(cells_.end(), record.begin(), record.end());
}

void GeneralizedTable::GeneralizeToCover(size_t row, RowView record) {
  KANON_CHECK(row < num_rows(), "row index out of range");
  KANON_CHECK(record.size() == num_attributes(), "record arity mismatch");
  const size_t r = num_attributes();
  for (size_t j = 0; j < r; ++j) {
    cells_[row * r + j] =
        scheme_->hierarchy(j).JoinValue(cells_[row * r + j], record[j]);
  }
}

bool GeneralizedTable::RowwiseGeneralizes(const GeneralizedTable& other) const {
  if (num_rows() != other.num_rows() ||
      num_attributes() != other.num_attributes()) {
    return false;
  }
  for (size_t i = 0; i < num_rows(); ++i) {
    for (size_t j = 0; j < num_attributes(); ++j) {
      const Hierarchy& h = scheme_->hierarchy(j);
      if (!h.set(other.at(i, j)).IsSubsetOf(h.set(at(i, j)))) {
        return false;
      }
    }
  }
  return true;
}

std::string GeneralizedTable::ToString() const {
  std::string out;
  for (size_t i = 0; i < num_rows(); ++i) {
    out += scheme_->Format(record(i));
    out += '\n';
  }
  return out;
}

}  // namespace kanon
