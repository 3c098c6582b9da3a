#ifndef KANON_COMMON_PARALLEL_H_
#define KANON_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>

#include "kanon/common/run_context.h"

namespace kanon {

/// Thread count used when a caller passes num_threads <= 0: the hardware
/// concurrency (at least 1).
int DefaultNumThreads();

/// Resolves a requested thread count: values <= 0 mean DefaultNumThreads().
int ResolveNumThreads(int requested);

/// Chunk geometry of a sweep over n items cut into chunks of about `grain`
/// items (grain 0 counts as 1): min(256, ceil(n / grain)) chunks, so a chunk
/// holds at most `grain` items below the 256-chunk cap and more than
/// grain / 2 when there are several, and a sweep of at most `grain` items is
/// one chunk. A pure function of (n, grain) — never of the thread count or
/// of the machine — so per-chunk partial results merged in chunk-index
/// order are byte-identical for every --threads value (the determinism
/// contract; see docs/parallelism.md). Each call site passes the grain its
/// per-item work calls for: 1 when an item is itself a long scan, larger
/// when an item is a few table lookups and a chunk must amortize the
/// hand-off to a worker.
size_t ParallelChunkCount(size_t n, size_t grain = 1);

/// Half-open item range [begin, end) of chunk `chunk` (< ParallelChunkCount).
/// Chunk ranges partition [0, n) in order: chunk c ends where c+1 begins,
/// and chunk sizes differ by at most one.
std::pair<size_t, size_t> ParallelChunkRange(size_t n, size_t chunk,
                                             size_t grain = 1);

/// Outcome of one parallel sweep.
struct SweepStatus {
  /// True when every chunk ran. False when `ctx` stopped the sweep early
  /// (deadline or cancellation observed inside a worker): the remaining
  /// chunks were skipped, the stop is already registered sticky on the
  /// context, and the caller must finalize its degraded path. Chunks that
  /// did run are never rolled back.
  bool completed = true;
};

/// Runs body(chunk, begin, end) once per chunk of [0, n) (geometry above),
/// spread over up to `num_threads` threads (<= 0 resolves to
/// DefaultNumThreads()). Bodies must write only disjoint state: their own
/// items, or their own chunk slot of a caller-provided partials array.
///
/// RunContext interaction (ctx may be null):
///   - A sweep on an already-stopped context runs nothing (completed=false).
///   - Workers poll RunContext::StopRequested() — deadline + cancellation,
///     both thread-safe — between chunks; a stop skips the remaining chunks.
///   - A completed sweep charges exactly ONE CheckPoint(stage) from the
///     calling thread, so the step budget advances deterministically (one
///     step per sweep, independent of thread count). The charge may trip the
///     budget; that stop applies from the *next* sweep/checkpoint on, never
///     retroactively to the finished one.
///
/// A sweep of one chunk, a sweep with one thread and a sweep nested inside
/// another sweep's chunk run inline on the calling thread.
SweepStatus ParallelChunks(
    size_t n, int num_threads, RunContext* ctx, const char* stage,
    const std::function<void(size_t, size_t, size_t)>& body,
    size_t grain = 1);

/// Item-wise wrapper: body(i) for every i in [0, n).
SweepStatus ParallelFor(size_t n, int num_threads, RunContext* ctx,
                        const char* stage,
                        const std::function<void(size_t)>& body,
                        size_t grain = 1);

/// Result of a deterministic parallel argmin.
struct ArgminResult {
  size_t index = 0;   // Smallest index attaining the minimum value.
  double value = 0.0;
  bool valid = false;  // At least one item was evaluated.
  /// False when the sweep was stopped early; the result then covers only
  /// the chunks that ran and the caller must treat it as a checkpoint stop.
  bool completed = true;
};

/// Deterministic parallel argmin of eval(i) over [0, n): chunk-local minima
/// are merged in chunk-index order with strict `<`, so the smallest index
/// attaining the global minimum wins at every thread count — the same
/// winner a serial ascending scan with strict `<` picks. Items may opt out
/// by returning +infinity (an all-infinite sweep still reports valid with
/// value +infinity; check the value).
ArgminResult ParallelArgmin(size_t n, int num_threads, RunContext* ctx,
                            const char* stage,
                            const std::function<double(size_t)>& eval,
                            size_t grain = 1);

}  // namespace kanon

#endif  // KANON_COMMON_PARALLEL_H_
