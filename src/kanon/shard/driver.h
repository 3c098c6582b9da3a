#ifndef KANON_SHARD_DRIVER_H_
#define KANON_SHARD_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/common/result.h"
#include "kanon/data/csv.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/measure.h"

namespace kanon {
namespace shard {

/// Out-of-core sharded anonymization (docs/sharding.md).
///
/// The driver splits the input into hash-partitioned shards, anonymizes
/// each shard independently with the configured engine under a forked
/// child budget, journals every intermediate to `work_dir` through the
/// atomic-commit protocol of shard_io.h, and merges the per-shard tables
/// into one output. The journal holds coded cells only: spills carry each
/// row's ValueCodes and checkpoints each shard table's SetIds, so no
/// label text is written or parsed after the input is read. A killed run
/// resumes from its checkpoints and reproduces byte-identical output (same
/// cells; see the determinism contract in docs/parallelism.md — the worker
/// thread count may even change between the original run and the resume).
///
/// Only the per-record k-anonymity methods (agglomerative, modified
/// agglomerative, forest, full-domain) are accepted: a union of
/// k-anonymous tables is k-anonymous under Definition 4.1 (identical-
/// record groups only grow when tables merge), so per-shard runs compose
/// into a global guarantee. The relational notions ((1,k), (k,1), (k,k),
/// global) do not compose this way and are rejected up front.
///
/// Per-shard fault isolation — the degradation ladder:
///   1. run the engine with a child context holding this shard's share of
///      the remaining parent budget;
///   2. on an error (including injected faults), retry up to
///      `max_attempts` times, halving the budget share each retry;
///   3. as a last resort, publish the shard fully suppressed (every row
///      R*) — lossy but k-anonymous, and the run completes.
/// A deadline/step-budget stop is not an error: the engine finalizes a
/// degraded-but-valid table, which the driver accepts without retry.
///
/// After the merge, a boundary-repair pass restores the *global*
/// guarantee: rows whose merged identical-record group is smaller than k
/// (possible when a suppressed or degraded shard published undersized
/// groups) are pooled, joined, and — if the pool itself is undersized —
/// absorbed into the smallest regular group. The published table is
/// k-anonymous whenever it has at least k rows, no matter which shards
/// failed.

struct ShardOptions {
  /// Shard count; 0 derives it from `memory_budget_mb` (see
  /// DeriveNumShards) or falls back to 1.
  size_t num_shards = 0;
  /// Approximate per-shard engine working-set budget. Only consulted when
  /// `num_shards` is 0.
  size_t memory_budget_mb = 0;
  /// Journal directory (spills, checkpoints, manifest). Required.
  std::string work_dir;
  /// Continue a previous run in `work_dir`: a valid manifest reuses the
  /// spills and every committed shard checkpoint. A missing manifest
  /// silently starts fresh (the previous run died before partitioning
  /// committed); a *corrupt* manifest, one of another version (a work dir
  /// an older build wrote), or mismatched input/configuration is an error,
  /// never silently clobbered. When `num_shards` is 0 the resume
  /// adopts the manifest's recorded shard count, so `--resume=DIR` alone
  /// continues a run whose geometry was chosen explicitly or derived from a
  /// memory budget; an explicit `num_shards` that disagrees with the
  /// manifest is still rejected.
  bool resume = false;
  /// Engine attempts per shard before the shard is suppressed outright.
  size_t max_attempts = 3;
  /// Quasi-identifier prefix width for the hash partitioner.
  size_t prefix_attributes = 3;
};

/// Per-shard outcome, in shard order.
struct ShardOutcome {
  uint64_t rows = 0;
  uint64_t attempts = 0;
  bool resumed = false;
  bool suppressed = false;
  bool degraded = false;
  StopReason stop_reason = StopReason::kNone;
  /// Why a shard was suppressed: the status text of its last failed
  /// attempt. Empty for shards that ran or were resumed.
  std::string error;
};

struct ShardedResult {
  explicit ShardedResult(std::shared_ptr<const GeneralizationScheme> scheme)
      : table(std::move(scheme)) {}

  /// The merged, boundary-repaired table over all input rows, in input
  /// row order.
  GeneralizedTable table;
  /// Π(D, g(D)) of `table` under the requested measure (computed on the
  /// global cost tables, not a per-shard approximation).
  double loss = 0.0;
  size_t rows = 0;
  size_t num_shards = 0;
  /// True when any shard degraded, was suppressed, or the parent budget
  /// ran out: the output is valid but lossier than a clean run's.
  bool degraded = false;
  StopReason stop_reason = StopReason::kNone;
  size_t shards_resumed = 0;
  size_t shards_suppressed = 0;
  size_t shard_retries = 0;
  /// Rows coarsened by the cross-shard boundary-repair pass.
  size_t boundary_repaired = 0;
  /// Rows published fully suppressed (R*) in the final table. This is a
  /// recount on the merged table, so the accounting is exact at every
  /// shard count — the invariant kanon_check's sharding properties pin.
  size_t records_suppressed = 0;
  std::vector<ShardOutcome> shards;
};

/// Sharded anonymization of an in-memory dataset, whose attributes must
/// hold the scheme's labels in the scheme's code order (InvalidArgument
/// otherwise): its codes go to the spills as they are, and its
/// ValueCounts() build the loss tables. `base` supplies the engine
/// configuration (k, method, distance, threads, telemetry, and the optional
/// parent RunContext whose budget the shards share).
Result<ShardedResult> ShardedAnonymize(
    const Dataset& dataset,
    std::shared_ptr<const GeneralizationScheme> scheme,
    const LossMeasure& measure, const AnonymizerConfig& base,
    const ShardOptions& options);

/// Sharded anonymization streaming straight from a CSV file: a counting
/// pass codes every row against the schema and sums the value counts the
/// loss tables are built from, then a second pass codes each row again and
/// writes it to its shard's spill, so the text table is never resident and
/// no spill is read back before its shard runs. The coded working set (one
/// shard's dataset plus the output cells) is what the memory budget bounds.
Result<ShardedResult> ShardedAnonymizeCsvFile(
    const std::string& csv_path,
    std::shared_ptr<const GeneralizationScheme> scheme,
    const CsvOptions& csv_options, const LossMeasure& measure,
    const AnonymizerConfig& base, const ShardOptions& options);

}  // namespace shard
}  // namespace kanon

#endif  // KANON_SHARD_DRIVER_H_
