#ifndef KANON_DATA_DATASET_H_
#define KANON_DATA_DATASET_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/attribute.h"
#include "kanon/data/schema.h"

namespace kanon {

/// A record of the public database D: one coded value per attribute.
using Record = std::vector<ValueCode>;

/// A zero-copy view of one coded row (a borrowed span of r ValueCodes).
/// Valid as long as the owning Dataset (or Record) outlives it and is not
/// appended to. This is what the hot loops pass around instead of copying
/// rows into fresh Records.
class RowView {
 public:
  constexpr RowView() = default;
  constexpr RowView(const ValueCode* data, size_t size)
      : data_(data), size_(size) {}
  /// Implicit, so call sites holding a Record keep working unchanged.
  RowView(const Record& record)  // NOLINT(google-explicit-constructor)
      : data_(record.data()), size_(record.size()) {}
  /// Braced literals (`Identity({1, 2})`): the backing array lives to the
  /// end of the full expression, which covers the immediate call. Do not
  /// store a RowView built this way — that is exactly the lifetime the
  /// suppressed warning is about.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  RowView(std::initializer_list<ValueCode> init)
      : data_(init.begin()), size_(init.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  constexpr ValueCode operator[](size_t j) const { return data_[j]; }
  constexpr size_t size() const { return size_; }
  constexpr const ValueCode* data() const { return data_; }
  constexpr const ValueCode* begin() const { return data_; }
  constexpr const ValueCode* end() const { return data_ + size_; }

  /// Materializes an owning copy.
  Record ToRecord() const { return Record(data_, data_ + size_); }

 private:
  const ValueCode* data_ = nullptr;
  size_t size_ = 0;
};

/// The public database D = {R_1, ..., R_n} (eq. (1) of the paper): an
/// in-memory table of coded categorical records over a Schema.
///
/// Rows are stored row-major (the layout appends want), and that is the
/// only layout a Dataset keeps: the engines' hot sweeps read packed
/// attribute-major columns that LossKernels builds and owns (see
/// docs/performance.md).
///
/// An optional class column (e.g. the contraceptive-method attribute of the
/// CMC dataset) stands in for the private database D'; it is used by the
/// classification metric and by the adversary demos, and is never touched by
/// the anonymization algorithms.
class Dataset {
 public:
  /// Empty placeholder (empty schema, no rows) — for default-constructed
  /// holders that are assigned a real dataset before use.
  Dataset() = default;

  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  /// A dataset over `schema` holding the row-major `cells` (n x r codes,
  /// each in range for its attribute): AppendRow in bulk, one move.
  static Result<Dataset> FromCells(Schema schema,
                                   std::vector<ValueCode> cells);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    return schema_.num_attributes() == 0
               ? 0
               : cells_.size() / schema_.num_attributes();
  }
  size_t num_attributes() const { return schema_.num_attributes(); }

  /// Value of attribute `attr` in row `row`. Ri(j) in the paper's notation.
  ValueCode at(size_t row, size_t attr) const {
    KANON_DCHECK(row < num_rows() && attr < num_attributes());
    return cells_[row * num_attributes() + attr];
  }

  /// Copies out row `row` as a Record.
  Record row(size_t row_index) const;

  /// Zero-copy view of row `row`, borrowing the dataset's row-major cells.
  /// Invalidated by AppendRow/AppendRowLabels.
  RowView row_view(size_t row_index) const {
    KANON_DCHECK(row_index < num_rows());
    const size_t r = num_attributes();
    return RowView(cells_.data() + row_index * r, r);
  }

  /// Appends a row. The record must have one in-range code per attribute.
  Status AppendRow(const Record& record);

  /// Appends a row of value labels, translating them to codes.
  Status AppendRowLabels(const std::vector<std::string>& labels);

  /// Per-attribute value histograms, counted in one pass over the rows:
  /// counts[j][v] = #{i : R_i(j) = v}, one count per value of attribute j.
  std::vector<std::vector<uint32_t>> ValueCounts() const;

  /// Attaches a class column (one code per existing row).
  Status SetClassColumn(AttributeDomain domain, std::vector<ValueCode> codes);
  bool has_class_column() const { return class_domain_.has_value(); }
  const AttributeDomain& class_domain() const;
  ValueCode class_of(size_t row) const;

  /// Returns the first `n` rows as a new dataset (class column included).
  /// Requires n <= num_rows().
  Dataset Head(size_t n) const;

 private:
  Schema schema_;
  std::vector<ValueCode> cells_;  // Row-major, n x r.
  std::optional<AttributeDomain> class_domain_;
  std::vector<ValueCode> class_codes_;
};

}  // namespace kanon

#endif  // KANON_DATA_DATASET_H_
