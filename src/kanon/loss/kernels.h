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
/// Every sweep reproduces the arithmetic of the scalar loop it replaces
/// bit for bit: per output element the per-attribute terms are added in
/// ascending attribute order and divided (not multiplied by the inverse)
/// exactly like the row-major code did, so tables stay byte-identical.
///
/// Construction primes the dataset's attribute-major mirror, so build one
/// of these on the coordinating thread before fanning out workers.
class LossKernels {
 public:
  LossKernels(const Dataset& dataset, const PrecomputedLoss& loss);

  size_t num_rows() const { return n_; }
  size_t num_attributes() const { return attrs_.size(); }

  /// out[v] = d({R_u, R_v}) for every row v (out holds num_rows() doubles).
  /// out[u] is d({R_u}) — callers skip it at selection time. This is the
  /// forest nearest-neighbor scan and the agglomerative singleton distance
  /// phase (for singletons, d(A ∪ B) IS the pairwise closure cost).
  void PairCostSweep(uint32_t u, double* out) const;

  /// out[v] = c(closure + R_v) for every row v — the (k,1) sweeps' "cost of
  /// absorbing row v into this cluster closure" scan.
  void JoinedCostSweep(const GeneralizedRecord& closure, double* out) const;

  /// Single-row joined cost c(closure + R_row) through the raw tables;
  /// identical arithmetic to the sweep.
  double JoinedCost(const GeneralizedRecord& closure, uint32_t row) const;

  /// d(A ∪ B) of two generalized records given as rows of
  /// num_attributes() set ids, attribute-wise through the raw join tables
  /// and the flat cost rows.
  double UnionCost(const SetId* a, const SetId* b) const;

 private:
  struct AttrTables {
    const ValueCode* col;   // Packed dataset column, n entries.
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

  std::vector<AttrTables> attrs_;
  size_t n_;
  double r_as_double_;  // Divisor; division order matches the scalar loops.
};

}  // namespace kanon

#endif  // KANON_LOSS_KERNELS_H_
