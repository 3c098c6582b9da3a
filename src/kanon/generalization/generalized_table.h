#ifndef KANON_GENERALIZATION_GENERALIZED_TABLE_H_
#define KANON_GENERALIZATION_GENERALIZED_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/scheme.h"

namespace kanon {

/// A generalization g(D) = {R̄_1, ..., R̄_n} of a table (Definition 3.2):
/// one generalized record per original row, under local recoding (each row
/// may be generalized differently).
class GeneralizedTable {
 public:
  /// Empty table over a scheme.
  explicit GeneralizedTable(std::shared_ptr<const GeneralizationScheme> scheme)
      : scheme_(std::move(scheme)) {
    KANON_CHECK(scheme_ != nullptr, "scheme must not be null");
  }

  /// A table over `scheme` holding the row-major `cells` (n x r set ids):
  /// AppendRecord in bulk, one move. Cells that do not fill whole rows are
  /// InvalidArgument; an id outside its attribute's hierarchy is OutOfRange.
  static Result<GeneralizedTable> FromCells(
      std::shared_ptr<const GeneralizationScheme> scheme,
      std::vector<SetId> cells);

  /// The identity generalization of `dataset`: R̄_i = R_i with every value
  /// mapped to its singleton subset.
  static GeneralizedTable Identity(
      std::shared_ptr<const GeneralizationScheme> scheme,
      const Dataset& dataset);

  const GeneralizationScheme& scheme() const { return *scheme_; }
  std::shared_ptr<const GeneralizationScheme> scheme_ptr() const {
    return scheme_;
  }

  size_t num_rows() const {
    const size_t r = scheme_->num_attributes();
    return r == 0 ? 0 : cells_.size() / r;
  }
  size_t num_attributes() const { return scheme_->num_attributes(); }

  SetId at(size_t row, size_t attr) const {
    KANON_DCHECK(row < num_rows() && attr < num_attributes());
    return cells_[row * num_attributes() + attr];
  }

  /// Copies out row `row` (R̄_row).
  GeneralizedRecord record(size_t row) const;

  /// Zero-copy view of row `row`: its r set ids in the row-major cells.
  /// Invalidated by AppendRecord.
  const SetId* row_data(size_t row) const {
    KANON_DCHECK(row < num_rows());
    return cells_.data() + row * num_attributes();
  }

  /// Overwrites row `row`.
  void SetRecord(size_t row, const GeneralizedRecord& record);

  /// Appends a row.
  void AppendRecord(const GeneralizedRecord& record);

  /// Further generalizes row `row` to also cover the original `record`
  /// (R̄_row := record + R̄_row). Takes a view so dataset rows pass through
  /// without a copy.
  void GeneralizeToCover(size_t row, RowView record);

  /// True iff dataset row `original_row` is consistent with generalized row
  /// `generalized_row` (Definition 3.3).
  bool ConsistentPair(const Dataset& dataset, size_t original_row,
                      size_t generalized_row) const {
    // Hot path of the consistency-graph construction; inlined deliberately.
    const size_t r = num_attributes();
    const size_t base = generalized_row * r;
    for (size_t j = 0; j < r; ++j) {
      if (!scheme_->hierarchy(j).Contains(cells_[base + j],
                                          dataset.at(original_row, j))) {
        return false;
      }
    }
    return true;
  }

  /// True iff every row of this table generalizes the matching row of
  /// `other` (used to assert that an anonymizer only coarsens a table).
  bool RowwiseGeneralizes(const GeneralizedTable& other) const;

  /// Cell-wise equality (set ids compared row-major). This is the
  /// determinism contract's notion of "byte-identical": two runs agree iff
  /// they publish exactly the same subset for every cell.
  friend bool operator==(const GeneralizedTable& a,
                         const GeneralizedTable& b) {
    return a.cells_ == b.cells_;
  }
  friend bool operator!=(const GeneralizedTable& a,
                         const GeneralizedTable& b) {
    return !(a == b);
  }

  /// Renders the table with labels, one formatted record per line.
  std::string ToString() const;

 private:
  std::shared_ptr<const GeneralizationScheme> scheme_;
  std::vector<SetId> cells_;  // Row-major, n x r.
};

}  // namespace kanon

#endif  // KANON_GENERALIZATION_GENERALIZED_TABLE_H_
