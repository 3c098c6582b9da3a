#ifndef KANON_LOSS_KERNELS_H_
#define KANON_LOSS_KERNELS_H_

#include <cstdint>
#include <vector>

#include "kanon/data/dataset.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// The columnar hot-path substrate: a (dataset, precomputed-loss) pair
/// re-bound as raw per-attribute tables — packed dataset columns, raw
/// leaf/join tables, flat cost rows — so the engines' O(n) inner sweeps are
/// linear scans over contiguous arrays instead of strided cell walks
/// through checked accessors.
///
/// The packed columns are the one attribute-major copy of D: the
/// constructor builds them and the object owns them, so once constructed
/// it is read-only and any number of threads may sweep it at once.
///
/// Every sweep reproduces the arithmetic of the scalar loop it replaces
/// bit for bit: per output element the per-attribute terms are added in
/// ascending attribute order and divided (not multiplied by the inverse)
/// exactly like the row-major code did, so tables stay byte-identical.
class LossKernels {
 public:
  LossKernels(const Dataset& dataset, const PrecomputedLoss& loss);

  // The tables point into columns_; a copy would point into the original.
  LossKernels(const LossKernels&) = delete;
  LossKernels& operator=(const LossKernels&) = delete;

  /// One answer of NearestRows: a row and its cost c(anchor ⊔ R_row) − base.
  struct NearestRow {
    double cost;
    uint32_t row;
  };

  /// The m lexicographically smallest pairs (c(anchor ⊔ R_v) − base, v)
  /// over the dataset rows v whose bit is clear in `skip` (⌈n/64⌉ words,
  /// bit v % 64 of word v / 64: the ConsistencyIndex mask layout),
  /// ascending, into `out`: fewer than m when fewer rows are left.
  /// `anchor` is a row of r set ids.
  /// Each cost has the bits of UnionCost(anchor, identity of R_v) − base.
  /// Anchored at a cluster closure with base c(C) this is the (k,1) greedy
  /// step's cheapest uncovered row; anchored at row u's identity closure
  /// with base 0 it is u's nearest neighbors by pairwise closure cost
  /// d({R_u, R_v}), for the (k,1) nearest-neighbor scan and the forest.
  void NearestRows(const SetId* anchor, double base, const uint64_t* skip,
                   size_t m, std::vector<NearestRow>* out) const;

  /// d(A ∪ B) of two generalized records given as rows of
  /// num_attributes() set ids, attribute-wise through the raw join tables
  /// and the flat cost rows.
  double UnionCost(const SetId* a, const SetId* b) const;

  /// Doubles in one joined-cost table: one per permissible set of every
  /// attribute.
  size_t joined_table_size() const { return table_size_; }

  /// Fills `table` (joined_table_size() doubles) with the anchor row's
  /// joined costs: for attribute j and set s, c_j(anchor[j] ⊔ s). A sweep
  /// that prices many rows against one anchor then reads one table entry
  /// per attribute (TableUnionCost) instead of a join and a cost.
  void FillJoinedCostTable(const SetId* anchor, double* table) const;

  /// Fills `table` (joined_table_size() doubles) with what covering the
  /// record `x` adds to each set's cost: for attribute j and set s,
  /// c_j(s ⊔ {x_j}) − c_j(s). TableUnionCost(table, row) is then
  /// PrecomputedLoss::CoverCost(row, x) / r with the same bits, which is how
  /// Algorithm 5 prices its upgrade candidates.
  void FillCoverCostTable(RowView x, double* table) const;

  /// UnionCost(anchor, b) through a table filled for the anchor: the same
  /// terms added in the same order, so the same bits.
  double TableUnionCost(const double* table, const SetId* b) const {
    double total = 0.0;
    for (size_t j = 0; j < table_offsets_.size(); ++j) {
      total += table[table_offsets_[j] + b[j]];
    }
    return total / r_as_double_;
  }

  /// out[s] = TableUnionCost(table, row s) for `count` rows given
  /// attribute-major: attribute j of row s at columns[j * count + s]. One
  /// pass per attribute over contiguous arrays, the terms added per row in
  /// ascending attribute order as TableUnionCost adds them.
  void TableCostSweep(const double* table, const SetId* columns, size_t count,
                      double* out) const;

 private:
  struct AttrTables {
    const ValueCode* col;   // Attribute j's n codes in columns_.
    const SetId* leaf;      // value -> singleton id.
    const SetId* join;      // num_sets x num_sets, row-major.
    const double* costs;    // SetId -> per-entry cost.
    size_t num_sets;
    size_t domain_size;     // |A_j|: the packed column's codes are below it.
  };

  std::vector<ValueCode> columns_;  // Attribute-major dataset, r x n.
  std::vector<AttrTables> attrs_;
  std::vector<size_t> table_offsets_;  // Attribute j's slice of a table.
  std::vector<size_t> domain_offsets_;  // Attribute j's slice of the
  size_t domain_total_ = 0;             // per-value costs NearestRows fills.
  size_t table_size_ = 0;
  size_t n_;
  double r_as_double_;  // Divisor; division order matches the scalar loops.
};

}  // namespace kanon

#endif  // KANON_LOSS_KERNELS_H_
