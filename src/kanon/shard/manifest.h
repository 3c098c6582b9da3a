#ifndef KANON_SHARD_MANIFEST_H_
#define KANON_SHARD_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/generalization/generalized_table.h"

namespace kanon {
namespace shard {

/// On-disk layout of one sharded run (docs/sharding.md):
///
///   <work_dir>/MANIFEST                    — this file, committed once the
///                                            partitioning phase finished
///   <work_dir>/shard-NNNN.spill            — shard inputs as coded records
///                                            (partition.h; committed
///                                            before the manifest)
///   <work_dir>/shard-NNNN.out              — per-shard anonymized table as
///                                            raw SetId cells (below)
///   <work_dir>/shard-NNNN.meta             — per-shard outcome + checksum
///                                            of the .out (committed after)
///
/// Every file is committed with write-temp + rename and carries (or is
/// covered by) a content checksum, so a resume can classify each shard as
/// done / partial / untouched from the file system alone.

/// One shard's partitioning record.
struct ShardEntry {
  uint64_t rows = 0;
  uint64_t spill_checksum = 0;
};

/// The run manifest: everything a resume needs to validate that the
/// directory belongs to the same (input, scheme, configuration) triple and
/// that the spill files are intact. `scheme_checksum` covers every
/// attribute's labels in code order and every hierarchy's sets in id
/// order: the spills hold codes and the checkpoints hold set ids, which
/// name the same values only under the same scheme. `fingerprint` folds in
/// the determinism-relevant
/// configuration (k, method, measure, distance, shard count, partition
/// prefix); the worker thread count is deliberately excluded — output is
/// thread-count invariant, so a run may be resumed at a different
/// --threads setting and still reproduce byte-identical output.
///
/// Format() writes kManifestVersion and Parse() accepts only it: version 1
/// work dirs hold text spills and CSV checkpoints this build cannot read,
/// so resuming one is an explicit error.
inline constexpr uint64_t kManifestVersion = 2;

struct Manifest {
  uint64_t input_checksum = 0;
  uint64_t scheme_checksum = 0;
  uint64_t rows = 0;
  std::string fingerprint;
  std::vector<ShardEntry> shards;

  std::string Format() const;
  static Result<Manifest> Parse(const std::string& text);
};

/// File-name helpers for the layout above.
std::string ManifestPath(const std::string& dir);
std::string SpillPath(const std::string& dir, size_t shard);
std::string ShardOutPath(const std::string& dir, size_t shard);
std::string ShardMetaPath(const std::string& dir, size_t shard);

/// One finished shard's committed outcome. The checksum covers the .out
/// file; a meta whose checksum does not match its .out is treated as a torn
/// checkpoint and the shard is re-run.
struct ShardMeta {
  uint64_t rows = 0;
  uint64_t out_checksum = 0;
  double loss = 0.0;
  uint64_t attempts = 1;
  bool degraded = false;
  StopReason stop_reason = StopReason::kNone;
  /// Whole-shard suppression: the degradation ladder's last resort.
  bool suppressed = false;
  /// Rows the *engine's* fallback coarsened inside this shard.
  uint64_t engine_suppressed = 0;
  /// Deterministic engine steps the shard consumed (charged to the parent
  /// budget on both fresh runs and resumes, keeping accounting identical).
  uint64_t steps = 0;

  std::string Format() const;
  static Result<ShardMeta> Parse(const std::string& text);
};

/// A shard checkpoint's `.out` bytes: the table's row-major SetId cells in
/// host byte order, no header (the row count lives in the ShardMeta).
std::string EncodeShardTable(const GeneralizedTable& table);

/// Reads a `.out` checkpoint of `rows` rows over `scheme`. A size other
/// than rows x r ids, or an id outside its attribute's hierarchy, is an
/// IOError: the caller re-runs the shard instead of trusting the file.
Result<GeneralizedTable> ReadShardTable(
    const std::shared_ptr<const GeneralizationScheme>& scheme,
    const std::string& path, uint64_t rows);

}  // namespace shard
}  // namespace kanon

#endif  // KANON_SHARD_MANIFEST_H_
