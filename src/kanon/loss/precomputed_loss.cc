#include "kanon/loss/precomputed_loss.h"

#include <cmath>
#include <string>

#include "kanon/common/check.h"
#include "kanon/common/parallel.h"

namespace kanon {

namespace {

// Chunk grain (ParallelChunkCount) of the entry-cost fill.
constexpr size_t kPrecomputeGrain = 1024;

}  // namespace

PrecomputedLoss::PrecomputedLoss(
    std::shared_ptr<const GeneralizationScheme> scheme, const Dataset& dataset,
    const LossMeasure& measure, int num_threads)
    : PrecomputedLoss(std::move(scheme), dataset.ValueCounts(), measure,
                      num_threads) {}

PrecomputedLoss::PrecomputedLoss(
    std::shared_ptr<const GeneralizationScheme> scheme,
    const std::vector<std::vector<uint32_t>>& value_counts,
    const LossMeasure& measure, int num_threads)
    : scheme_(std::move(scheme)), measure_name_(measure.name()) {
  KANON_CHECK(scheme_ != nullptr, "scheme must not be null");
  KANON_CHECK(value_counts.size() == scheme_->num_attributes(),
              "dataset arity mismatch");
  const size_t r = scheme_->num_attributes();
  offsets_.resize(r + 1);
  offsets_[0] = 0;
  for (size_t j = 0; j < r; ++j) {
    offsets_[j + 1] = offsets_[j] + scheme_->hierarchy(j).num_sets();
  }
  costs_.resize(offsets_[r]);
  for (size_t j = 0; j < r; ++j) {
    const Hierarchy& h = scheme_->hierarchy(j);
    const std::vector<uint32_t>& counts = value_counts[j];
    KANON_CHECK(counts.size() == h.domain_size(),
                "one value count per domain value expected");
    double* row = costs_.data() + offsets_[j];
    // SetCost is a pure function of (hierarchy, counts, set): the table
    // fills set-wise across the worker threads, one disjoint slot each. A
    // set costs one pass over its leaves, so chunks take about
    // kPrecomputeGrain sets and tables up to that size fill inline.
    ParallelFor(
        h.num_sets(), num_threads, nullptr, "loss/precompute",
        [&](size_t s) {
          row[s] = measure.SetCost(h, counts, static_cast<SetId>(s));
        },
        kPrecomputeGrain);
  }
  inv_num_attributes_ = 1.0 / static_cast<double>(r);
}

void PrecomputedLoss::RecordCostMany(const SetId* records, size_t count,
                                     double* out) const {
  // Raw base pointers hoisted once: the per-record stores into `out` (a
  // double*, which could alias costs_ as far as the compiler knows) never
  // force a reload of the table pointers, and the call allocates nothing.
  // Records are priced four at a time with independent accumulators — the
  // four load-add chains interleave in the pipeline instead of serializing
  // on one accumulator's add latency. Each record's own additions stay in
  // ascending-j order exactly as in RecordCost, so every result is
  // bit-identical to the scalar path.
  const size_t r = offsets_.size() - 1;
  const double inv_r = inv_num_attributes_;
  const double* const costs = costs_.data();
  const size_t* const offsets = offsets_.data();
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const SetId* rec0 = records + i * r;
    const SetId* rec1 = rec0 + r;
    const SetId* rec2 = rec1 + r;
    const SetId* rec3 = rec2 + r;
    double t0 = 0.0;
    double t1 = 0.0;
    double t2 = 0.0;
    double t3 = 0.0;
    for (size_t j = 0; j < r; ++j) {
      const double* const row = costs + offsets[j];
      t0 += row[rec0[j]];
      t1 += row[rec1[j]];
      t2 += row[rec2[j]];
      t3 += row[rec3[j]];
    }
    out[i] = t0 * inv_r;
    out[i + 1] = t1 * inv_r;
    out[i + 2] = t2 * inv_r;
    out[i + 3] = t3 * inv_r;
  }
  for (; i < count; ++i) {
    const SetId* rec = records + i * r;
    double total = 0.0;
    for (size_t j = 0; j < r; ++j) {
      total += costs[offsets[j] + rec[j]];
    }
    out[i] = total * inv_r;
  }
}

double PrecomputedLoss::TableLoss(const GeneralizedTable& table) const {
  KANON_CHECK(table.num_attributes() == scheme_->num_attributes(),
              "table arity mismatch");
  if (table.num_rows() == 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    double row_cost = 0.0;
    for (size_t j = 0; j < table.num_attributes(); ++j) {
      row_cost += costs_[offsets_[j] + table.at(i, j)];
    }
    total += row_cost;
  }
  return total * inv_num_attributes_ / static_cast<double>(table.num_rows());
}

double PrecomputedLoss::ClosureCost(const Dataset& dataset,
                                    const std::vector<uint32_t>& rows) const {
  return RecordCost(scheme_->ClosureOfRows(dataset, rows).data());
}

Result<PrecomputedLoss> PrecomputedLoss::WithAttributeWeights(
    const std::vector<double>& weights) const {
  const size_t r = offsets_.size() - 1;
  if (weights.size() != r) {
    return Status::InvalidArgument("expected " + std::to_string(r) +
                                   " attribute weights, got " +
                                   std::to_string(weights.size()));
  }
  double sum = 0.0;
  for (size_t j = 0; j < r; ++j) {
    if (!std::isfinite(weights[j]) || weights[j] < 0.0) {
      return Status::InvalidArgument("attribute weight " + std::to_string(j) +
                                     " must be finite and non-negative");
    }
    sum += weights[j];
  }
  if (sum <= 0.0) {
    return Status::InvalidArgument("attribute weights must not all be zero");
  }
  const double r_over_sum = static_cast<double>(r) / sum;
  if (!std::isfinite(sum) || !std::isfinite(r_over_sum)) {
    return Status::InvalidArgument(
        "attribute weights out of range: their sum and the attribute count "
        "divided by it must both be finite");
  }
  PrecomputedLoss reweighted = *this;
  reweighted.measure_name_ = measure_name_ + "+attr-weights";
  for (size_t j = 0; j < r; ++j) {
    // scale_j = w_j·r/Σw. For a uniform power-of-two weight (1.0 included)
    // the sum r·w, the quotient r/(r·w) = 1/w and the product w·(1/w) are
    // all exact, so the scale is exactly 1.0 and the copy prices records
    // bit-identically to *this. Doubling every weight doubles both w_j and
    // Σw exactly, leaving every scale bit-identical.
    const double scale = weights[j] * r_over_sum;
    double* row = reweighted.costs_.data() + offsets_[j];
    for (size_t s = offsets_[j]; s < offsets_[j + 1]; ++s) {
      row[s - offsets_[j]] *= scale;
    }
  }
  return reweighted;
}

}  // namespace kanon
