#ifndef KANON_ALGO_CORE_CLOSURE_STORE_H_
#define KANON_ALGO_CORE_CLOSURE_STORE_H_

#include <cstdint>
#include <vector>

#include "kanon/algo/core/engine_counters.h"
#include "kanon/common/distinct_rows.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// Hash-consed store of generalized-record closures with memoized
/// generalization cost. Every engine that materializes closures routes them
/// through one store per run: identical closures are kept (and priced via
/// PrecomputedLoss::RecordCost) exactly once, and the id is a dense handle
/// that is cheaper to copy and compare than the record itself. The closures
/// are the rows of one RowInterner, r set ids each, numbered in first-sight
/// order.
///
/// Intern() is atomic — it either returns an existing id or fully installs
/// the new closure before returning — so a run wound down by a RunContext
/// stop between interns always leaves the store consistent:
/// hits() + misses() == total Intern() calls and size() == misses().
/// Not thread-safe; engines intern from their coordinating thread only
/// (parallel sweeps compute raw closures and intern after the barrier).
class ClosureStore {
 public:
  using Id = uint32_t;
  static constexpr Id kInvalidId = UINT32_MAX;

  /// The loss binds the store to one (scheme, dataset) pair; it must
  /// outlive the store.
  explicit ClosureStore(const PrecomputedLoss& loss)
      : loss_(loss),
        rows_(loss.scheme().num_attributes()),
        scratch_(loss.scheme().num_attributes()) {}

  ClosureStore(const ClosureStore&) = delete;
  ClosureStore& operator=(const ClosureStore&) = delete;

  /// Returns the id of the closure whose r set ids are at `record`,
  /// installing (and pricing) it on first sight. `record` must not point
  /// into the store.
  Id Intern(const SetId* record);

  /// Convenience: interns the attribute-wise join of two stored closures.
  Id InternJoin(Id a, Id b);

  /// Convenience: interns the closure of a set of dataset rows.
  Id InternClosureOfRows(const Dataset& dataset,
                         const std::vector<uint32_t>& rows);

  /// Interns every row of a generalized table; the result has one id per
  /// row. This is the dedup-accounting hook the table-producing pipelines
  /// ((k,k), global) use to surface closure reuse.
  std::vector<Id> InternTable(const GeneralizedTable& table);

  /// The r set ids of a stored closure. Valid until the next Intern: the
  /// rows live in one array that grows as closures are added.
  const SetId* row(Id id) const {
    KANON_DCHECK(id < size());
    return rows_.row(id);
  }

  /// Memoized c(R̄) of a stored closure.
  double cost(Id id) const {
    KANON_DCHECK(id < costs_.size());
    return costs_[id];
  }

  const PrecomputedLoss& loss() const { return loss_; }

  /// Distinct closures stored (== misses()).
  size_t size() const { return rows_.size(); }
  size_t hits() const { return hits_; }
  size_t misses() const { return rows_.size(); }

  /// Copies the store's cache statistics into shared engine counters.
  void ExportCounters(EngineCounters* counters) const {
    if (counters == nullptr) return;
    counters->closure_hits += hits();
    counters->closure_misses += misses();
  }

 private:
  const PrecomputedLoss& loss_;
  RowInterner rows_;
  std::vector<double> costs_;
  std::vector<SetId> scratch_;  // The row the convenience interns build.
  size_t hits_ = 0;
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_CLOSURE_STORE_H_
