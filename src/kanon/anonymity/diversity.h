#ifndef KANON_ANONYMITY_DIVERSITY_H_
#define KANON_ANONYMITY_DIVERSITY_H_

#include <cstddef>

#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"

namespace kanon {

/// ℓ-diversity (Machanavajjhala et al.), which the paper points to as the
/// natural strengthening of its notions on the sensitive-attribute side:
/// every anonymity group (rows sharing the same generalized record) must
/// contain "diverse enough" values of the sensitive class column.
///
/// Distinct ℓ-diversity: each group has at least ℓ distinct class values.
/// Requires dataset.has_class_column() and equal row counts.
bool IsDistinctLDiverse(const Dataset& dataset, const GeneralizedTable& table,
                        size_t l);

/// The largest ℓ such that the table is distinct ℓ-diverse (the minimum,
/// over the groups, of the number of distinct class values). 0 for an
/// empty table.
size_t DistinctDiversity(const Dataset& dataset,
                         const GeneralizedTable& table);

}  // namespace kanon

#endif  // KANON_ANONYMITY_DIVERSITY_H_
