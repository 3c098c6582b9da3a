#include "kanon/loss/kernels.h"

#include <algorithm>
#include <vector>

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
        h.domain_size(),
    };
  }
}

namespace {

// Per-thread scratch for the per-value gather table, grown to the largest
// domain the thread has seen: a warm sweep allocates nothing.
double* ScratchTable(size_t size) {
  thread_local std::vector<double> table;
  if (table.size() < size) table.resize(size);
  return table.data();
}

}  // namespace

void LossKernels::AddJoinedCosts(const AttrTables& a, const SetId* join_row,
                                 double* out) const {
  // One cost per domain value, then one gather per row: the values and the
  // ascending-attribute add order of costs[join_row[leaf[col[v]]]], so the
  // same bits.
  double* cost = ScratchTable(a.domain_size);
  for (size_t v = 0; v < a.domain_size; ++v) {
    cost[v] = a.costs[join_row[a.leaf[v]]];
  }
  for (size_t v = 0; v < n_; ++v) {
    out[v] += cost[a.col[v]];
  }
}

void LossKernels::PairCostSweep(uint32_t u, double* out) const {
  std::fill(out, out + n_, 0.0);
  for (const AttrTables& a : attrs_) {
    // Row of the join table anchored at u's singleton.
    const size_t anchor = a.leaf[a.col[u]];
    AddJoinedCosts(a, a.join + anchor * a.num_sets, out);
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
    AddJoinedCosts(a, a.join + static_cast<size_t>(closure[j]) * a.num_sets,
                   out);
  }
  for (size_t v = 0; v < n_; ++v) {
    out[v] /= r_as_double_;
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
