#ifndef KANON_ALGO_FOREST_H_
#define KANON_ALGO_FOREST_H_

#include "kanon/algo/clustering.h"
#include "kanon/algo/core/engine_counters.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// The forest algorithm of Aggarwal et al. [2,3] — the paper's baseline
/// k-anonymizer with a 3k−3 approximation guarantee (for the tree measure).
///
/// Phase 1 grows a spanning forest in which every tree has at least k
/// records: while some component is smaller than k, it is attached to
/// another component through its cheapest outgoing edge, where the weight
/// of edge (u,v) is the pairwise generalization cost d({R_u, R_v}).
///
/// Phase 2 splits every tree larger than 3k−3 into parts of size in
/// [k, 3k−3] (cutting at the deepest vertex whose subtree has ≥ k nodes,
/// grouping child subtrees when necessary).
///
/// The resulting trees become the clusters of the anonymization.
///
/// When `ctx` stops the run, phase 1 pools the records of still-undersized
/// components (attaching a < k pool to an already-grown tree) and phase 2's
/// utility-only splitting is skipped, so the output stays k-anonymous.
/// The optional `counters` (not owned) accumulates engine telemetry:
/// component merges and nearest-neighbor rescans.
Result<Clustering> ForestCluster(const Dataset& dataset,
                                 const PrecomputedLoss& loss, size_t k,
                                 RunContext* ctx = nullptr,
                                 EngineCounters* counters = nullptr);

/// Convenience: cluster and translate to a generalized table.
Result<GeneralizedTable> ForestKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    RunContext* ctx = nullptr, EngineCounters* counters = nullptr);

}  // namespace kanon

#endif  // KANON_ALGO_FOREST_H_
