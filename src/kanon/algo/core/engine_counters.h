#ifndef KANON_ALGO_CORE_ENGINE_COUNTERS_H_
#define KANON_ALGO_CORE_ENGINE_COUNTERS_H_

#include <cstddef>

namespace kanon {

/// Observability counters shared by every anonymization engine. Each
/// pipeline fills the counters it exercises; the rest stay zero. All values
/// are deterministic at every thread count: chunk geometry is a pure
/// function of the item count, and the closure-store hit total depends only
/// on the multiset of interned closures, never on their order.
struct EngineCounters {
  /// Cluster merges performed (agglomerative engines, forest unions).
  size_t merges = 0;
  /// Full nearest-neighbor rescans (the expensive O(active·r) repair path).
  size_t rescans = 0;
  /// Always 0: Algorithm 1 keeps no merge heap to rebuild. Kept only because
  /// the end-to-end benchmark reads it (ROADMAP, next benchmark change).
  size_t heap_rebuilds = 0;
  /// ClosureStore interns that found an existing closure (memoized cost).
  size_t closure_hits = 0;
  /// ClosureStore interns that created a new entry (cost computed once).
  size_t closure_misses = 0;
  /// Record-upgrade steps ((k,1) repair, Algorithm 6 global upgrades).
  size_t upgrade_steps = 0;
  /// Chunk units of parallel work issued by the engine's sweeps. A pure
  /// function of the sweep sizes, so identical at every --threads value.
  size_t parallel_chunks = 0;

  /// Fraction of interns served from the closure cache (0 when unused).
  double closure_hit_rate() const {
    const size_t total = closure_hits + closure_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(closure_hits) /
                            static_cast<double>(total);
  }
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_ENGINE_COUNTERS_H_
