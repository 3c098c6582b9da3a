#ifndef KANON_LOSS_KERNELS_H_
#define KANON_LOSS_KERNELS_H_

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

  /// out[v] = c(closure + R_v) for every dataset row v (out holds one
  /// double per row), `closure` being a row of r set ids. Anchored at a
  /// cluster closure it is the (k,1) greedy sweep's "cost of absorbing row
  /// v" scan; anchored at row u's identity closure (its leaf ids) it gives
  /// the pairwise closure costs d({R_u, R_v}) of the forest and (k,1)
  /// nearest-neighbor scans, out[u] being d({R_u}).
  void JoinedCostSweep(const SetId* closure, double* out) const;

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

  // out[v] += costs[join_row[leaf[col[v]]]] for every row v, through a
  // per-call table of the domain's joined costs.
  void AddJoinedCosts(const AttrTables& a, const SetId* join_row,
                      double* out) const;

  std::vector<ValueCode> columns_;  // Attribute-major dataset, r x n.
  std::vector<AttrTables> attrs_;
  std::vector<size_t> table_offsets_;  // Attribute j's slice of a table.
  size_t table_size_ = 0;
  size_t n_;
  double r_as_double_;  // Divisor; division order matches the scalar loops.
};

}  // namespace kanon

#endif  // KANON_LOSS_KERNELS_H_
