#ifndef KANON_SHARD_PARTITION_H_
#define KANON_SHARD_PARTITION_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/shard/manifest.h"
#include "kanon/shard/shard_io.h"

namespace kanon {
namespace shard {

/// Hash partitioning of the coded input rows into shard spill files
/// (docs/sharding.md).
///
/// Rows are routed by an FNV-1a hash of their first `prefix` attribute
/// labels — a quasi-identifier prefix — so records that agree on those
/// attributes (the likeliest k-anonymity group mates) land in the same
/// shard and the cross-shard boundary-repair pass has less to do, with a
/// per-shard row cap that spreads skew-heavy prefixes (see SpillWriter).
/// The labels are looked up from the schema by code, so routing does not
/// depend on how the codes were numbered. Routing is a pure function of the
/// input's content and order, the prefix width, the shard count, and the
/// cap (itself derived from the recorded row count and geometry); prefix
/// and shard count are folded into the manifest fingerprint, so a resume
/// can prove the spills on disk were produced by the same partitioning.

/// Shard index of a coded row: FNV-1a over the labels of its first
/// min(prefix, r) values (length-delimited, so {"ab","c"} and {"a","bc"}
/// hash apart), mod `num_shards`.
size_t ShardOfRow(const Schema& schema, RowView row, size_t prefix,
                  size_t num_shards);

/// Picks a shard count for `rows` under a per-shard memory budget of
/// `memory_budget_mb`. The dominant working-set term of the clustering
/// engines is quadratic in the shard's row count (candidate scans, closure
/// caches), so the budget maps to a max rows-per-shard of roughly
/// sqrt(budget_bytes / 16); the shard count is ceil(rows / that), clamped
/// to [1, 4096]. A zero budget yields 1 (sharding off unless --shards is
/// set explicitly).
size_t DeriveNumShards(uint64_t rows, size_t memory_budget_mb);

/// Streams coded rows into `num_shards` spill files, one open stream per
/// shard, with a running content checksum per stream (no second read
/// pass).
///
/// Spill record format: fixed-width records, no header — the global row
/// index as a uint64_t, then the row's r ValueCodes, all in host byte
/// order (a work dir is not portable across byte orders). No label text
/// reaches the spill, so any label the schema holds spills safely.
///
/// Skew protection: with `max_rows_per_shard` > 0, a row whose prefix
/// shard is already at the cap overflows to another shard (full-label
/// hash, then linear probing for free capacity). A quasi-identifier
/// prefix heavier than the per-shard budget therefore cannot concentrate
/// the whole input in one shard and defeat the memory bound — per-shard
/// k-anonymity composes across any row partition, so spreading a heavy
/// prefix costs utility (more boundary repair), never validity. Routing
/// stays a pure function of the input content and order. 0 = uncapped
/// (pure prefix routing).
///
/// Lifecycle: Open() creates `<dir>/shard-NNNN.spill.tmp` streams;
/// Append() routes rows; Commit() flushes every stream and renames each
/// temporary over its final name, returning the per-shard row counts and
/// checksums for the manifest. A SpillWriter abandoned before Commit()
/// leaves only .tmp files, which the next partitioning sweeps away.
///
/// Failpoints: `shard.spill_write` (a row write fails mid-stream),
/// `shard.spill_commit` (flush-or-rename of a finished spill fails).
class SpillWriter {
 public:
  /// `schema` supplies the labels routing hashes; it must outlive the
  /// writer.
  SpillWriter(std::string dir, const Schema& schema, size_t num_shards,
              size_t prefix, uint64_t max_rows_per_shard = 0);

  Status Open();
  /// Appends one row of r codes, each in range for its attribute.
  Status Append(uint64_t global_row, RowView row);
  Result<std::vector<ShardEntry>> Commit();

  uint64_t rows_written() const { return rows_written_; }

 private:
  /// Prefix shard, or the deterministic overflow shard once the prefix
  /// shard is at `max_rows_per_shard_`.
  size_t RouteRow(RowView row) const;

  const std::string dir_;
  const Schema& schema_;
  const size_t num_shards_;
  const size_t prefix_;
  const uint64_t max_rows_per_shard_;
  uint64_t rows_written_ = 0;
  std::vector<std::ofstream> streams_;
  std::vector<Hasher> hashers_;
  std::vector<uint64_t> rows_per_shard_;
  std::string record_;  // One encoded record, reused across Append calls.
};

/// One spill file read back, in the order the partitioner wrote it: the
/// global row indices and the row-major codes (rows x r), ready for
/// Dataset::FromCells, which range-checks them.
struct SpillRows {
  std::vector<uint64_t> global_rows;
  std::vector<ValueCode> cells;
};

/// Reads a committed spill of rows with `num_attributes` codes each. A file
/// that is not a whole number of records is an IOError. Read failures
/// surface the `shard.file_read` failpoint via the shared file reader.
Result<SpillRows> ReadSpill(const std::string& path, size_t num_attributes);

}  // namespace shard
}  // namespace kanon

#endif  // KANON_SHARD_PARTITION_H_
