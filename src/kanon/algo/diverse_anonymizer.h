#ifndef KANON_ALGO_DIVERSE_ANONYMIZER_H_
#define KANON_ALGO_DIVERSE_ANONYMIZER_H_

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/clustering.h"
#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// k-anonymization with distinct ℓ-diversity (Section II points to
/// Machanavajjhala et al.; the paper notes that ℓ-diversity "fits also in
/// our framework" and leaves it to future work — this is that extension
/// for the clustering-based pipeline).
///
/// Runs the agglomerative k-anonymizer and then repairs diversity: any
/// cluster whose rows carry fewer than ℓ distinct class values is merged
/// with the cluster whose union closure is cheapest, until every cluster
/// is ℓ-diverse. The result is k-anonymous AND distinct ℓ-diverse.
///
/// Requires dataset.has_class_column(), 1 ≤ ℓ ≤ #classes, and that the
/// dataset as a whole carries at least ℓ distinct class values (otherwise
/// no generalization can be ℓ-diverse and an error is returned).
Result<Clustering> LDiverseCluster(const Dataset& dataset,
                                   const PrecomputedLoss& loss, size_t k,
                                   size_t l,
                                   const AgglomerativeOptions& options);

/// Convenience: cluster and translate to a generalized table.
Result<GeneralizedTable> LDiverseKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k, size_t l,
    const AgglomerativeOptions& options);

}  // namespace kanon

#endif  // KANON_ALGO_DIVERSE_ANONYMIZER_H_
