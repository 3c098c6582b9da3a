#ifndef KANON_LOSS_PRECOMPUTED_LOSS_H_
#define KANON_LOSS_PRECOMPUTED_LOSS_H_

#include <memory>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/measure.h"

namespace kanon {

/// A LossMeasure bound to a (scheme, dataset) pair with every per-entry cost
/// precomputed, so that the generalization cost c(R̄) of a record and the
/// information loss Π(D, g(D)) of a table are table lookups. This is the
/// object the anonymization algorithms evaluate millions of times.
///
/// The per-entry costs live in ONE contiguous buffer with per-attribute
/// offsets (not a vector of per-attribute vectors), so the hot loops walk a
/// flat array: attr_costs(j) hands kernels the raw row for attribute j.
class PrecomputedLoss {
 public:
  /// Precomputes cost[attr][set] = measure.SetCost(...) for every attribute
  /// and permissible subset from D's value histograms (Dataset::ValueCounts
  /// layout), all a measure reads of D. The measure is only used during
  /// construction. Each attribute's cost table fills across `num_threads`
  /// threads (<= 0: hardware concurrency); the tables are identical at
  /// every thread count.
  PrecomputedLoss(std::shared_ptr<const GeneralizationScheme> scheme,
                  const std::vector<std::vector<uint32_t>>& value_counts,
                  const LossMeasure& measure, int num_threads = 1);

  /// The same, with the histograms counted from `dataset`.
  PrecomputedLoss(std::shared_ptr<const GeneralizationScheme> scheme,
                  const Dataset& dataset, const LossMeasure& measure,
                  int num_threads = 1);

  const GeneralizationScheme& scheme() const { return *scheme_; }
  std::shared_ptr<const GeneralizationScheme> scheme_ptr() const {
    return scheme_;
  }
  const std::string& measure_name() const { return measure_name_; }

  /// Per-entry cost of publishing subset `set` for attribute `attr`.
  double EntryCost(size_t attr, SetId set) const {
    KANON_DCHECK(attr + 1 < offsets_.size() &&
                 offsets_[attr] + set < offsets_[attr + 1]);
    return costs_[offsets_[attr] + set];
  }

  /// Raw cost row of attribute `attr`, indexed by SetId — what the batched
  /// kernels read instead of going through EntryCost per cell.
  const double* attr_costs(size_t attr) const {
    KANON_DCHECK(attr + 1 < offsets_.size());
    return costs_.data() + offsets_[attr];
  }

  /// 1 / r, the normalization every record-cost kernel applies.
  double inv_num_attributes() const { return inv_num_attributes_; }

  /// c(R̄) = (1/r) Σ_j cost_j(R̄(j)) — the generalization cost of a record,
  /// given as its r set ids in place (a table row, a stored closure).
  double RecordCost(const SetId* record) const {
    double total = 0.0;
    for (size_t j = 0; j + 1 < offsets_.size(); ++j) {
      total += costs_[offsets_[j] + record[j]];
    }
    return total * inv_num_attributes_;
  }

  /// Σ_j cost_j(row(j) ⊔ {x(j)}) − cost_j(row(j)), the terms added in
  /// ascending j and not divided by r: how much generalizing `row` (r set
  /// ids) to cover the record `x` adds to r·c(row). Algorithms 5 and 6
  /// price their upgrade candidates with it.
  double CoverCost(const SetId* row, RowView x) const {
    KANON_DCHECK(x.size() + 1 == offsets_.size());
    double delta = 0.0;
    for (size_t j = 0; j < x.size(); ++j) {
      const SetId joined = scheme_->hierarchy(j).JoinValue(row[j], x[j]);
      delta += EntryCost(j, joined) - EntryCost(j, row[j]);
    }
    return delta;
  }

  /// Batched RecordCost over `count` records stored row-major at `records`
  /// (count x r set ids): out[i] = RecordCost(records + i·r), identical
  /// arithmetic, one call. The agglomerative shrink prices its leave-one-out
  /// closures through this.
  void RecordCostMany(const SetId* records, size_t count, double* out) const;

  /// Π(D, g(D)) = (1/n) Σ_i c(R̄_i) — the information loss of a table.
  double TableLoss(const GeneralizedTable& table) const;

  /// d(S): the generalization cost of the closure of a set of dataset rows
  /// (eq. (7)). Requires `rows` non-empty.
  double ClosureCost(const Dataset& dataset,
                     const std::vector<uint32_t>& rows) const;

  /// A copy whose attribute-j cost row is scaled by w_j·r/Σw, so that
  /// RecordCost computes the weight-normalized average Σ_j w_j·cost_j / Σw
  /// through the unchanged (1/r) kernels. This is how attribute weights
  /// reach the pipelines (AnonymizerConfig::attr_weights): every pipeline
  /// prices clusters on the reweighted copy without knowing weights exist.
  /// Uniform power-of-two weights (1.0 included) give scale 1.0 exactly
  /// (bit-identical costs); doubling all weights leaves every scale
  /// bit-identical.
  /// The one validation of user-supplied weights: InvalidArgument unless
  /// there is exactly one finite weight >= 0 per attribute, not all zero,
  /// with Σw and r/Σw both finite (so no cost row is scaled by inf, and not
  /// every row by 0).
  Result<PrecomputedLoss> WithAttributeWeights(
      const std::vector<double>& weights) const;

 private:
  std::shared_ptr<const GeneralizationScheme> scheme_;
  std::string measure_name_;
  std::vector<double> costs_;     // Flat: attribute j's row starts at
  std::vector<size_t> offsets_;   // offsets_[j]; offsets_ has r+1 entries.
  double inv_num_attributes_;
};

}  // namespace kanon

#endif  // KANON_LOSS_PRECOMPUTED_LOSS_H_
