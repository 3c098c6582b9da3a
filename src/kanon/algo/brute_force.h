#ifndef KANON_ALGO_BRUTE_FORCE_H_
#define KANON_ALGO_BRUTE_FORCE_H_

#include "kanon/algo/clustering.h"
#include "kanon/algo/core/engine_counters.h"
#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// Exhaustively optimal k-anonymization in the clustering model: the
/// partition into parts of size ≥ k minimizing Π(D, g(D)). Exponential in
/// n — a test oracle for tiny inputs (n ≤ ~10). Part closures are interned
/// in a ClosureStore, so the cost of a part recurring across partitions is
/// computed once; the optional `counters` (not owned) reports the hit rate.
Result<Clustering> OptimalKAnonymityBruteForce(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    EngineCounters* counters = nullptr);

/// Exhaustively optimal (k,1)-anonymization (Section V-B.1): for every
/// record, the best (k−1)-subset of companions. O(n·C(n−1,k−1)) — a test
/// oracle for tiny inputs. Returns the optimal table. Combination closures
/// are interned as in OptimalKAnonymityBruteForce.
Result<GeneralizedTable> OptimalK1BruteForce(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    EngineCounters* counters = nullptr);

/// The information loss of a clustering under `loss`:
/// Π = (1/n) Σ_S |S|·d(S) (eq. (7)).
double ClusteringLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                      const Clustering& clustering);

}  // namespace kanon

#endif  // KANON_ALGO_BRUTE_FORCE_H_
