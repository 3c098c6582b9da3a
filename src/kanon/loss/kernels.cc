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
  columns_.resize(n_ * r);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < r; ++j) columns_[j * n_ + i] = dataset.at(i, j);
  }
  attrs_.resize(r);
  for (size_t j = 0; j < r; ++j) {
    const Hierarchy& h = scheme.hierarchy(j);
    attrs_[j] = AttrTables{
        columns_.data() + j * n_,
        h.leaf_table(),
        h.join_table(),
        loss.attr_costs(j),
        h.num_sets(),
        h.domain_size(),
    };
    table_offsets_.push_back(table_size_);
    table_size_ += h.num_sets();
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

void LossKernels::JoinedCostSweep(const SetId* closure, double* out) const {
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

void LossKernels::FillJoinedCostTable(const SetId* anchor,
                                      double* table) const {
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttrTables& t = attrs_[j];
    const SetId* join_row =
        t.join + static_cast<size_t>(anchor[j]) * t.num_sets;
    double* out = table + table_offsets_[j];
    for (size_t s = 0; s < t.num_sets; ++s) out[s] = t.costs[join_row[s]];
  }
}

void LossKernels::TableCostSweep(const double* table, const SetId* columns,
                                 size_t count, double* out) const {
  // Blocks of rows small enough that their sums stay in L1 across the
  // per-attribute passes.
  constexpr size_t kBlock = 1024;
  for (size_t begin = 0; begin < count; begin += kBlock) {
    const size_t end = std::min(count, begin + kBlock);
    std::fill(out + begin, out + end, 0.0);
    for (size_t j = 0; j < table_offsets_.size(); ++j) {
      const double* cost = table + table_offsets_[j];
      const SetId* col = columns + j * count;
      for (size_t s = begin; s < end; ++s) out[s] += cost[col[s]];
    }
    for (size_t s = begin; s < end; ++s) out[s] /= r_as_double_;
  }
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
