#include "kanon/loss/kernels.h"

#include <algorithm>

#include "kanon/common/check.h"

namespace kanon {

LossKernels::LossKernels(const Dataset& dataset, const PrecomputedLoss& loss)
    : n_(dataset.num_rows()),
      r_as_double_(static_cast<double>(dataset.num_attributes())) {
  const GeneralizationScheme& scheme = loss.scheme();
  const size_t r = dataset.num_attributes();
  KANON_CHECK(r == scheme.num_attributes(), "dataset/loss arity mismatch");
  attrs_.resize(r);
  for (size_t j = 0; j < r; ++j) {
    const Hierarchy& h = scheme.hierarchy(j);
    attrs_[j] = AttrTables{
        dataset.column(j),  // Primes the attribute-major mirror (first j).
        h.leaf_table(),
        h.join_table(),
        loss.attr_costs(j),
        h.num_sets(),
    };
  }
}

void LossKernels::PairCostSweep(uint32_t u, double* out) const {
  std::fill(out, out + n_, 0.0);
  for (const AttrTables& a : attrs_) {
    // Row of the join table anchored at u's singleton: one packed column
    // scan per attribute, gathering join-then-cost.
    const SetId* join_row =
        a.join + static_cast<size_t>(a.leaf[a.col[u]]) * a.num_sets;
    for (size_t v = 0; v < n_; ++v) {
      out[v] += a.costs[join_row[a.leaf[a.col[v]]]];
    }
  }
  for (size_t v = 0; v < n_; ++v) {
    out[v] /= r_as_double_;
  }
}

void LossKernels::JoinedCostSweep(const GeneralizedRecord& closure,
                                  double* out) const {
  KANON_DCHECK(closure.size() == attrs_.size());
  std::fill(out, out + n_, 0.0);
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttrTables& a = attrs_[j];
    const SetId* join_row =
        a.join + static_cast<size_t>(closure[j]) * a.num_sets;
    for (size_t v = 0; v < n_; ++v) {
      out[v] += a.costs[join_row[a.leaf[a.col[v]]]];
    }
  }
  for (size_t v = 0; v < n_; ++v) {
    out[v] /= r_as_double_;
  }
}

void LossKernels::CoverageSweep(const GeneralizedRecord& closure,
                                uint8_t* covered) const {
  KANON_DCHECK(closure.size() == attrs_.size());
  std::fill(covered, covered + n_, uint8_t{1});
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttrTables& a = attrs_[j];
    const SetId cj = closure[j];
    const SetId* join_row = a.join + static_cast<size_t>(cj) * a.num_sets;
    // R_v ∈ closure[j] iff joining changes nothing (lattice containment).
    for (size_t v = 0; v < n_; ++v) {
      covered[v] &= static_cast<uint8_t>(join_row[a.leaf[a.col[v]]] == cj);
    }
  }
}

double LossKernels::JoinedCost(const GeneralizedRecord& closure,
                               uint32_t row) const {
  KANON_DCHECK(closure.size() == attrs_.size());
  double total = 0.0;
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttrTables& a = attrs_[j];
    total += a.costs[a.join[static_cast<size_t>(closure[j]) * a.num_sets +
                            a.leaf[a.col[row]]]];
  }
  return total / r_as_double_;
}

double LossKernels::UnionCost(const SetId* a, const SetId* b) const {
  double total = 0.0;
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttrTables& t = attrs_[j];
    total += t.costs[t.join[static_cast<size_t>(a[j]) * t.num_sets + b[j]]];
  }
  return total / r_as_double_;
}

}  // namespace kanon
