#ifndef KANON_ALGO_AGGLOMERATIVE_H_
#define KANON_ALGO_AGGLOMERATIVE_H_

#include "kanon/algo/clustering.h"
#include "kanon/algo/core/engine_counters.h"
#include "kanon/algo/distance.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

namespace internal {

// Chunk grain (ParallelChunkCount) of the agglomerative sweeps whose
// per-item work is only O(r) — a handful of join-table lookups, tens of
// nanoseconds — so a chunk outweighs handing it to a worker and a sweep of
// at most this many items runs inline. The O(n·r)-per-item all-pairs scan
// keeps grain 1. Results are identical at every grain; only the speed
// changes.
inline constexpr size_t kAgglomerativeCheapSweepGrain = 512;

}  // namespace internal

/// Options for the agglomerative k-anonymization algorithms.
struct AgglomerativeOptions {
  /// Cluster distance (Section V-A.2). The paper finds (10) and (11) best;
  /// (11) is the default, as in AnonymizerConfig.
  DistanceFunction distance = DistanceFunction::kRatio;
  /// When true, runs the *modified* agglomerative algorithm (Algorithm 2):
  /// a cluster that ripens beyond size k is shrunk back to exactly k by
  /// repeatedly ejecting the record whose removal is most profitable; the
  /// ejected records re-enter the pool as singletons.
  bool modified = false;
  /// Debug/testing: verify by exhaustive O(n²) scan, before every merge,
  /// that the merged pair is the smallest key (d1, x, c1) over the alive
  /// clusters and that every first-best distance is exact, and check every
  /// two-best that does not come from a full scan against one. Quadratic
  /// per merge — only for tests.
  bool check_exact_merges = false;
  /// Worker threads for the O(n²·r) scans (all-pairs init, post-merge
  /// repair, full rescans). <= 0 resolves to the hardware concurrency;
  /// 1 runs single-threaded. The clustering is byte-identical at every
  /// thread count (see docs/parallelism.md).
  int num_threads = 1;
  /// Optional engine telemetry (merges, rescans, closure cache hits,
  /// parallel chunks). Not owned; accumulated into, never reset.
  /// Deterministic at every thread count.
  EngineCounters* counters = nullptr;
  /// Optional execution controls (deadline, cancellation, step budget). Not
  /// owned. On stop the engine finalizes the partial clustering: records of
  /// still-undersized clusters are pooled into one catch-all cluster (or
  /// attached to the nearest finished cluster), so the output is always
  /// k-anonymous — just lossier. See docs/robustness.md.
  RunContext* run_context = nullptr;
};

/// The (basic or modified) agglomerative algorithm for k-anonymization
/// (Algorithms 1 and 2 of Section V-A): start from singleton clusters,
/// repeatedly unify the two closest clusters, and move clusters of size ≥ k
/// to the output; leftover records join their nearest final cluster.
///
/// Every output cluster has at least k records (at most 2k−2 for the basic
/// variant; exactly k for the modified variant, except clusters that absorb
/// leftovers). Requires 1 ≤ k ≤ n. Expected cost O(n²·r).
///
/// This entry is the library's one switch on `options.distance`: it runs
/// the engine of agglomerative_engine.h instantiated for that distance, so
/// no per-pair code branches on the enum (docs/algorithms.md).
Result<Clustering> AgglomerativeCluster(const Dataset& dataset,
                                        const PrecomputedLoss& loss, size_t k,
                                        const AgglomerativeOptions& options);

/// Convenience: cluster and translate to a generalized table.
Result<GeneralizedTable> AgglomerativeKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    const AgglomerativeOptions& options);

/// All leave-one-out closures of `rows` at once, written to `out` as len
/// flat rows of r set ids: row p is the closure of rows ∖ {rows[p]},
/// computed with prefix/suffix closure joins in O(len·r) total instead of
/// O(len²·r). Requires len >= 2. Joins form a semilattice (Hierarchy::Build
/// verifies unique minimal supersets), so each result is identical to
/// folding the leaves one by one. This is the inner step of Algorithm 2's
/// ejection scan; exposed for tests.
void LeaveOneOutClosures(const Dataset& dataset,
                         const GeneralizationScheme& scheme,
                         const std::vector<uint32_t>& rows,
                         std::vector<SetId>* out);

}  // namespace kanon

#endif  // KANON_ALGO_AGGLOMERATIVE_H_
