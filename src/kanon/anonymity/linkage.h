#ifndef KANON_ANONYMITY_LINKAGE_H_
#define KANON_ANONYMITY_LINKAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"

namespace kanon {

/// First-adversary linkage queries against a published table: given the
/// public record of one individual (what a voter register would reveal),
/// which published records could be theirs? This is the operation the
/// paper's anonymity notions bound from below — (1,k)-anonymity promises
/// |LinkCandidates| ≥ k for every represented individual.
///
/// The record may be *partial*: kNoValue entries (kanon/data/attribute.h)
/// are attributes the adversary does not know, matching every published
/// subset.

/// Indices of the published records consistent with `record` (attributes
/// set to kNoValue are ignored). Returns an error if a known value is out
/// of its domain.
Result<std::vector<uint32_t>> LinkCandidates(const GeneralizedTable& table,
                                             const std::vector<ValueCode>& record);

/// Label-based convenience: empty strings and "*" mean "unknown".
Result<std::vector<uint32_t>> LinkCandidatesByLabel(
    const GeneralizedTable& table, const std::vector<std::string>& labels);

/// The smallest candidate-set size over all records of `dataset` — the
/// table-wide linkage guarantee an adversary with full public knowledge
/// faces (this equals the (1,k) bound of the table).
size_t MinLinkageSetSize(const Dataset& dataset,
                         const GeneralizedTable& table);

}  // namespace kanon

#endif  // KANON_ANONYMITY_LINKAGE_H_
