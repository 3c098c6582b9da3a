#ifndef KANON_ALGO_KK_ANONYMIZER_H_
#define KANON_ALGO_KK_ANONYMIZER_H_

#include "kanon/algo/core/engine_counters.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// Algorithm 3: (k,1)-anonymization by nearest neighbors. Each record is
/// generalized to the closure of itself and the k−1 records minimizing the
/// pairwise closure cost d({R_i, R_j}). Approximates the optimal
/// (k,1)-anonymization within a factor of k−1 (Proposition 5.1). O(k·n²·r).
/// When `ctx` stops the run, records not yet processed are emitted fully
/// suppressed — every suppressed record covers all n ≥ k originals, so
/// (k,1)-anonymity is preserved.
///
/// The (k,1) functions take `num_threads` (<= 0 resolves to the hardware
/// concurrency) for their row-wise O(n²·r) scans; results are
/// byte-identical at every thread count (see docs/parallelism.md). The optional `counters`
/// (not owned) accumulates engine telemetry — closure interning hit rates,
/// upgrade steps, sweep chunks — also deterministic at every thread count.
Result<GeneralizedTable> K1NearestNeighbors(const Dataset& dataset,
                                            const PrecomputedLoss& loss,
                                            size_t k,
                                            RunContext* ctx = nullptr,
                                            int num_threads = 1,
                                            EngineCounters* counters = nullptr);

/// Algorithm 4: (k,1)-anonymization by greedy expansion. Each record grows
/// a cluster of size k by repeatedly adding the record whose inclusion
/// increases the closure cost the least. No approximation guarantee, but
/// consistently better than Algorithm 3 in the paper's experiments.
/// O(k·n²·r) worst case.
Result<GeneralizedTable> K1GreedyExpansion(const Dataset& dataset,
                                           const PrecomputedLoss& loss,
                                           size_t k,
                                           RunContext* ctx = nullptr,
                                           int num_threads = 1,
                                           EngineCounters* counters = nullptr);

/// Algorithm 5: the (1,k)-anonymizer. Further generalizes records of
/// `table` until every record of `dataset` is consistent with at least k of
/// them: a record R_i with only ℓ < k consistent generalized records picks
/// the k−ℓ inconsistent records R̄_j minimizing c(R_i + R̄_j) − c(R̄_j) and
/// replaces them with R_i + R̄_j. Applied to a (k,1)-anonymization this
/// yields a (k,k)-anonymization. ℓ comes from a ConsistencyIndex over
/// `table` (O(n·r·n/64) in all); only a record with ℓ < k prices the rows,
/// O(n·r) each.
/// When `ctx` stops the run mid-repair, (1,k) is restored wholesale by fully
/// suppressing the k cheapest-to-suppress records of `table` (every original
/// is then consistent with those k rows; (k,1) is preserved because records
/// only coarsen).
Result<GeneralizedTable> Make1KAnonymous(const Dataset& dataset,
                                         const PrecomputedLoss& loss, size_t k,
                                         GeneralizedTable table,
                                         RunContext* ctx = nullptr,
                                         EngineCounters* counters = nullptr);

/// Which (k,1) algorithm seeds the (k,k) pipeline.
enum class K1Algorithm {
  kNearestNeighbors,  // Algorithm 3.
  kGreedyExpansion,   // Algorithm 4.
};

/// The paper's (k,k)-anonymizer: a (k,1) algorithm coupled with
/// Algorithm 5. The coupling of Algorithm 4 with Algorithm 5 is the
/// recommended configuration.
Result<GeneralizedTable> KKAnonymize(const Dataset& dataset,
                                     const PrecomputedLoss& loss, size_t k,
                                     K1Algorithm k1_algorithm,
                                     RunContext* ctx = nullptr,
                                     int num_threads = 1,
                                     EngineCounters* counters = nullptr);

}  // namespace kanon

#endif  // KANON_ALGO_KK_ANONYMIZER_H_
