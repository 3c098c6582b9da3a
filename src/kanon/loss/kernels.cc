#include "kanon/loss/kernels.h"

#include <algorithm>
#include <cstddef>
#include <limits>
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
    domain_offsets_.push_back(domain_total_);
    domain_total_ += h.domain_size();
  }
}

namespace {

// Per-thread scratch for the per-value gather table, grown to the largest
// one the thread has seen: a warm sweep allocates nothing.
double* ScratchTable(size_t size) {
  thread_local std::vector<double> table;
  if (table.size() < size) table.resize(size);
  return table.data();
}

}  // namespace

void LossKernels::NearestRows(const SetId* anchor, double base,
                              const uint64_t* skip, size_t m,
                              std::vector<NearestRow>* out) const {
  out->clear();
  m = std::min(m, n_);
  if (m == 0) return;
  // One joined cost per domain value, c_j(anchor_j ⊔ {value}), so a row
  // costs one gather per attribute; then the m sums kept so far.
  double* value_cost = ScratchTable(domain_total_ + m);
  double* kept = value_cost + domain_total_;  // kept[i]: out[i]'s sum.
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttrTables& a = attrs_[j];
    const SetId* join_row =
        a.join + static_cast<size_t>(anchor[j]) * a.num_sets;
    double* cost = value_cost + domain_offsets_[j];
    for (size_t v = 0; v < a.domain_size; ++v) {
      cost[v] = a.costs[join_row[a.leaf[v]]];
    }
  }
  // Blocks of rows small enough that their sums stay in L1 across the
  // per-attribute passes; the terms are added in ascending attribute order.
  constexpr size_t kBlock = 1024;
  double sums[kBlock];
  // The m-th best's undivided sum once m rows are kept. x -> x / r - base
  // never decreases and rows arrive in ascending index, so a row whose sum
  // exceeds it cannot enter: only the rest pay the division, the
  // subtraction and the skip test.
  double limit = std::numeric_limits<double>::infinity();
  for (size_t begin = 0; begin < n_; begin += kBlock) {
    const size_t len = std::min(kBlock, n_ - begin);
    std::fill(sums, sums + len, 0.0);
    for (size_t j = 0; j < attrs_.size(); ++j) {
      const double* cost = value_cost + domain_offsets_[j];
      const ValueCode* col = attrs_[j].col + begin;
      for (size_t i = 0; i < len; ++i) sums[i] += cost[col[i]];
    }
    for (size_t i = 0; i < len; ++i) {
      if (!(sums[i] <= limit)) continue;
      const size_t v = begin + i;
      if ((skip[v >> 6] >> (v & 63)) & 1) continue;
      const double cost = sums[i] / r_as_double_ - base;
      // A kept row with an equal cost has a lower index and stays ahead.
      size_t pos = out->size();
      while (pos > 0 && cost < (*out)[pos - 1].cost) --pos;
      if (pos == m) continue;
      if (out->size() == m) out->pop_back();
      const size_t size = out->size();
      out->insert(out->begin() + static_cast<ptrdiff_t>(pos),
                  NearestRow{cost, static_cast<uint32_t>(v)});
      std::copy_backward(kept + pos, kept + size, kept + size + 1);
      kept[pos] = sums[i];
      if (size + 1 == m) limit = kept[m - 1];
    }
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

void LossKernels::FillCoverCostTable(RowView x, double* table) const {
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttrTables& t = attrs_[j];
    // The join table is symmetric, so s ⊔ {x_j} reads along leaf(x_j)'s row.
    const SetId* join_row =
        t.join + static_cast<size_t>(t.leaf[x[j]]) * t.num_sets;
    double* out = table + table_offsets_[j];
    for (size_t s = 0; s < t.num_sets; ++s) {
      out[s] = t.costs[join_row[s]] - t.costs[s];
    }
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
