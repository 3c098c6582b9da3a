#ifndef KANON_GENERALIZATION_SCHEME_H_
#define KANON_GENERALIZATION_SCHEME_H_

#include <memory>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/data/schema.h"
#include "kanon/generalization/hierarchy.h"

namespace kanon {

/// A generalized record: one permissible subset id per attribute.
/// This is the type of the rows R̄_i of a generalized table g(D).
using GeneralizedRecord = std::vector<SetId>;

/// One Hierarchy per schema attribute: the full specification of the
/// permissible generalizations of a table (the collections A_1, ..., A_r).
class GeneralizationScheme {
 public:
  /// `hierarchies[j]` must cover schema attribute j exactly.
  static Result<GeneralizationScheme> Create(
      Schema schema, std::vector<Hierarchy> hierarchies);

  /// Suppression-only scheme (singletons + full set per attribute).
  static Result<GeneralizationScheme> SuppressionOnly(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_attributes() const { return hierarchies_.size(); }
  const Hierarchy& hierarchy(size_t attr) const;

  /// The identity generalization of a record: each value mapped to its
  /// singleton subset. Takes a view, so dataset rows pass through without
  /// materializing a Record (a plain Record converts implicitly).
  GeneralizedRecord Identity(RowView record) const;

  /// The fully suppressed record R* (every attribute = full domain).
  GeneralizedRecord Suppressed() const;

  /// Attribute-wise join of two generalized records: the minimal record
  /// generalizing both.
  GeneralizedRecord JoinRecords(const GeneralizedRecord& a,
                                const GeneralizedRecord& b) const;

  /// Closure of a set of dataset rows (Section V-A.1): the minimal
  /// generalized record consistent with all of them. `rows` must not be
  /// empty.
  GeneralizedRecord ClosureOfRows(const Dataset& dataset,
                                  const std::vector<uint32_t>& rows) const;

  /// The same closure written to `out` (r set ids), for callers that keep
  /// records in flat buffers.
  void ClosureOfRows(const Dataset& dataset, const std::vector<uint32_t>& rows,
                     SetId* out) const;

  /// True iff the original record is consistent with the generalized one
  /// (Definition 3.3): record[j] ∈ gen[j] for every attribute j.
  bool Consistent(RowView record, const GeneralizedRecord& gen) const;

  /// Renders a generalized record with value labels, e.g. "34 | {M,F}".
  std::string Format(const GeneralizedRecord& gen) const;

 private:
  GeneralizationScheme(Schema schema, std::vector<Hierarchy> hierarchies)
      : schema_(std::move(schema)), hierarchies_(std::move(hierarchies)) {}

  Schema schema_;
  std::vector<Hierarchy> hierarchies_;
};

}  // namespace kanon

#endif  // KANON_GENERALIZATION_SCHEME_H_
