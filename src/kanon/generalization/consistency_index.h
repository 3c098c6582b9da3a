#ifndef KANON_GENERALIZATION_CONSISTENCY_INDEX_H_
#define KANON_GENERALIZATION_CONSISTENCY_INDEX_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/generalization/scheme.h"

namespace kanon {

/// The library's one consistency primitive (Definition 3.3): which rows of
/// a GeneralizedTable are consistent with a record (RowCoverIndex below
/// answers the dual question). For every attribute j and value v it keeps a
/// bitset over the table rows whose published subset at j contains v; the
/// rows consistent with R = (x_1, ..., x_r) are the AND of the r bitsets
/// (j, x_j), and their number is its popcount. Every O(n²·r) consistency
/// scan — Algorithm 5's repair, the consistency graph V_{D,g(D)}, the
/// (1,k)/(k,1) verifiers, linkage and ℓ-diversity — runs through it;
/// GeneralizedTable::ConsistentPair stays as the scalar reference the tests
/// compare against.
///
/// Memory: Σ|A_j| · ⌈n/64⌉ words (85 KiB for Adult at n = 4000).
class ConsistencyIndex {
 public:
  /// Indexes every row of `table`. O(n·Σ|A_j|).
  explicit ConsistencyIndex(const GeneralizedTable& table);

  size_t num_rows() const { return num_rows_; }
  /// Length of a row mask in 64-bit words: bit t of word t/64 is row t.
  size_t num_words() const { return num_words_; }

  /// Re-reads row `row` of `table` after its cells only coarsened (e.g. by
  /// GeneralizeToCover). A coarser cell contains every value it contained
  /// before, so this only sets bits. O(Σ|A_j|).
  void Refresh(const GeneralizedTable& table, size_t row);

  /// Writes the rows consistent with `record` to `mask` (num_words()
  /// words) and returns how many there are. An attribute whose value is
  /// kNoValue is a wildcard: it matches every row.
  size_t Consistent(RowView record, uint64_t* mask) const;

  /// True iff row `row` is set in `mask`.
  static bool Has(const uint64_t* mask, size_t row) {
    return (mask[row >> 6] >> (row & 63)) & 1;
  }

  /// Calls fn(t) for every row t set in `mask`, in ascending t.
  template <typename Fn>
  void ForEachRow(const uint64_t* mask, Fn&& fn) const {
    for (size_t w = 0; w < num_words_; ++w) {
      for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

 private:
  const uint64_t* Bits(size_t attr, ValueCode value) const {
    return bits_.data() + (offsets_[attr] + value) * num_words_;
  }

  size_t num_rows_;
  size_t num_words_;
  std::vector<size_t> offsets_;  // Σ_{j' < j} |A_j'|, r + 1 entries.
  std::vector<uint64_t> bits_;   // (offsets_[j] + v) * num_words_ + word.
};

/// The dual query: which rows of a Dataset a generalized record covers
/// (is consistent with). For every attribute j and permissible subset s it
/// keeps a bitset over the dataset rows whose value at j lies in s; the
/// rows covered by R̄ are the AND of the r bitsets (j, R̄(j)). Algorithm 4
/// asks this once per distinct closure (K1GreedyExpansion).
///
/// Memory: Σ num_sets_j · ⌈n/64⌉ words (~0.1 MiB for Adult at n = 4000).
class RowCoverIndex {
 public:
  /// Indexes every row of `dataset`. O(Σ num_sets_j · (|A_j| + n)).
  RowCoverIndex(const Dataset& dataset, const GeneralizationScheme& scheme);

  /// Length of a row mask in 64-bit words: bit t of word t/64 is row t.
  size_t num_words() const { return num_words_; }

  /// Writes the dataset rows covered by the generalized record `record`
  /// (r set ids) to `mask` (num_words() words, laid out as
  /// ConsistencyIndex's, so ConsistencyIndex::Has reads it) and returns how
  /// many there are.
  size_t Covered(const SetId* record, uint64_t* mask) const;

 private:
  size_t num_words_;
  std::vector<size_t> offsets_;  // Σ_{j' < j} num_sets_j', r + 1 entries.
  std::vector<uint64_t> bits_;   // (offsets_[j] + s) * num_words_ + word.
};

}  // namespace kanon

#endif  // KANON_GENERALIZATION_CONSISTENCY_INDEX_H_
