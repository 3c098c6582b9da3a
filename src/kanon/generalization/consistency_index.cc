#include "kanon/generalization/consistency_index.h"

#include <algorithm>
#include <bit>

#include "kanon/common/check.h"

namespace kanon {

ConsistencyIndex::ConsistencyIndex(const GeneralizedTable& table)
    : num_rows_(table.num_rows()), num_words_((num_rows_ + 63) / 64) {
  const GeneralizationScheme& scheme = table.scheme();
  const size_t r = scheme.num_attributes();
  offsets_.assign(r + 1, 0);
  for (size_t j = 0; j < r; ++j) {
    offsets_[j + 1] = offsets_[j] + scheme.hierarchy(j).domain_size();
  }
  bits_.assign(offsets_[r] * num_words_, 0);
  for (size_t t = 0; t < num_rows_; ++t) {
    Refresh(table, t);
  }
}

void ConsistencyIndex::Refresh(const GeneralizedTable& table, size_t row) {
  KANON_DCHECK(row < num_rows_);
  const GeneralizationScheme& scheme = table.scheme();
  const uint64_t bit = uint64_t{1} << (row & 63);
  const size_t word = row >> 6;
  for (size_t j = 0; j < scheme.num_attributes(); ++j) {
    const ValueSet& cell = scheme.hierarchy(j).set(table.at(row, j));
    uint64_t* column = bits_.data() + offsets_[j] * num_words_ + word;
    for (ValueCode v = 0; v < offsets_[j + 1] - offsets_[j]; ++v) {
      if (cell.Contains(v)) column[v * num_words_] |= bit;
    }
  }
}

size_t ConsistencyIndex::Consistent(RowView record, uint64_t* mask) const {
  KANON_DCHECK(record.size() + 1 == offsets_.size());
  bool first = true;
  for (size_t j = 0; j < record.size(); ++j) {
    const ValueCode v = record[j];
    if (v == kNoValue) continue;
    KANON_DCHECK(v < offsets_[j + 1] - offsets_[j]);
    const uint64_t* bits = Bits(j, v);
    if (first) {
      std::copy(bits, bits + num_words_, mask);
      first = false;
    } else {
      for (size_t w = 0; w < num_words_; ++w) mask[w] &= bits[w];
    }
  }
  if (first) {  // All wildcards: every row.
    std::fill(mask, mask + num_words_, ~uint64_t{0});
    if (num_rows_ % 64 != 0) {
      mask[num_words_ - 1] = (uint64_t{1} << (num_rows_ % 64)) - 1;
    }
  }
  size_t count = 0;
  for (size_t w = 0; w < num_words_; ++w) count += std::popcount(mask[w]);
  return count;
}

RowCoverIndex::RowCoverIndex(const Dataset& dataset,
                             const GeneralizationScheme& scheme)
    : num_words_((dataset.num_rows() + 63) / 64) {
  const size_t n = dataset.num_rows();
  const size_t r = scheme.num_attributes();
  KANON_CHECK(dataset.num_attributes() == r, "dataset/scheme arity mismatch");
  offsets_.assign(r + 1, 0);
  for (size_t j = 0; j < r; ++j) {
    offsets_[j + 1] = offsets_[j] + scheme.hierarchy(j).num_sets();
  }
  bits_.assign(offsets_[r] * num_words_, 0);
  std::vector<uint8_t> in_set;
  std::vector<ValueCode> column(n);
  for (size_t j = 0; j < r; ++j) {
    const Hierarchy& h = scheme.hierarchy(j);
    for (size_t t = 0; t < n; ++t) column[t] = dataset.at(t, j);
    in_set.resize(h.domain_size());
    for (SetId s = 0; s < h.num_sets(); ++s) {
      for (ValueCode v = 0; v < h.domain_size(); ++v) {
        in_set[v] = h.Contains(s, v) ? 1 : 0;
      }
      uint64_t* bits = bits_.data() + (offsets_[j] + s) * num_words_;
      for (size_t t = 0; t < n; ++t) {
        bits[t >> 6] |= uint64_t{in_set[column[t]]} << (t & 63);
      }
    }
  }
}

size_t RowCoverIndex::Covered(const SetId* record, uint64_t* mask) const {
  const size_t r = offsets_.size() - 1;
  KANON_DCHECK(r > 0);
  for (size_t j = 0; j < r; ++j) {
    KANON_DCHECK(offsets_[j] + record[j] < offsets_[j + 1]);
    const uint64_t* bits =
        bits_.data() + (offsets_[j] + record[j]) * num_words_;
    if (j == 0) {
      std::copy(bits, bits + num_words_, mask);
    } else {
      for (size_t w = 0; w < num_words_; ++w) mask[w] &= bits[w];
    }
  }
  size_t count = 0;
  for (size_t w = 0; w < num_words_; ++w) count += std::popcount(mask[w]);
  return count;
}

}  // namespace kanon
