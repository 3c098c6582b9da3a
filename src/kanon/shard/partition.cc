#include "kanon/shard/partition.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "kanon/common/failpoint.h"

namespace kanon {
namespace shard {

namespace {

constexpr size_t kMaxShards = 4096;

/// FNV-1a over the labels of the row's first `width` values, each preceded
/// by its 32-bit length.
uint64_t LabelHash(const Schema& schema, RowView row, size_t width) {
  Hasher hasher;
  for (size_t j = 0; j < width; ++j) {
    const std::string& label = schema.attribute(j).label(row[j]);
    const uint32_t size = static_cast<uint32_t>(label.size());
    hasher.Update(&size, sizeof(size));
    hasher.Update(label);
  }
  return hasher.digest();
}

size_t SpillRecordBytes(size_t num_attributes) {
  return sizeof(uint64_t) + num_attributes * sizeof(ValueCode);
}

}  // namespace

size_t ShardOfRow(const Schema& schema, RowView row, size_t prefix,
                  size_t num_shards) {
  if (num_shards <= 1) return 0;
  const size_t width = prefix < row.size() ? prefix : row.size();
  return static_cast<size_t>(LabelHash(schema, row, width) % num_shards);
}

size_t DeriveNumShards(uint64_t rows, size_t memory_budget_mb) {
  if (memory_budget_mb == 0 || rows == 0) return 1;
  const double budget_bytes = static_cast<double>(memory_budget_mb) * 1e6;
  double max_rows = std::sqrt(budget_bytes / 16.0);
  if (max_rows < 1.0) max_rows = 1.0;
  const uint64_t shards = static_cast<uint64_t>(std::ceil(
      static_cast<double>(rows) / max_rows));
  if (shards <= 1) return 1;
  if (shards > kMaxShards) return kMaxShards;
  return static_cast<size_t>(shards);
}

SpillWriter::SpillWriter(std::string dir, const Schema& schema,
                         size_t num_shards, size_t prefix,
                         uint64_t max_rows_per_shard)
    : dir_(std::move(dir)),
      schema_(schema),
      num_shards_(num_shards == 0 ? 1 : num_shards),
      prefix_(prefix),
      max_rows_per_shard_(max_rows_per_shard),
      record_(SpillRecordBytes(schema.num_attributes()), '\0') {}

Status SpillWriter::Open() {
  // Sweep stale temporaries from an earlier abandoned partitioning so a
  // crashed run cannot leak half-written spills into this one.
  KANON_RETURN_NOT_OK(RemoveFilesWithSuffix(dir_, ".spill.tmp"));
  streams_.resize(num_shards_);
  hashers_.assign(num_shards_, Hasher());
  rows_per_shard_.assign(num_shards_, 0);
  for (size_t s = 0; s < num_shards_; ++s) {
    const std::string tmp = SpillPath(dir_, s) + ".tmp";
    streams_[s].open(tmp, std::ios::binary | std::ios::trunc);
    if (!streams_[s]) {
      return Status::IOError("cannot open '" + tmp + "' for writing");
    }
  }
  return Status::OK();
}

size_t SpillWriter::RouteRow(RowView row) const {
  const size_t primary = ShardOfRow(schema_, row, prefix_, num_shards_);
  if (max_rows_per_shard_ == 0 || num_shards_ <= 1 ||
      rows_per_shard_[primary] < max_rows_per_shard_) {
    return primary;
  }
  // The primary shard is full: its quasi-identifier prefix is heavier than
  // the per-shard budget (skew). Spill the overflow elsewhere — k-anonymity
  // composes across *any* row partition (Definition 4.1), so co-locating a
  // prefix is only a utility optimization, never a validity requirement.
  // The escape hatch hashes the full label tuple and probes linearly from
  // there, a pure function of (labels, occupancy) and therefore of the
  // input content and order — reruns repartition identically.
  const size_t s =
      static_cast<size_t>(LabelHash(schema_, row, row.size()) % num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    const size_t probe = (s + i) % num_shards_;
    if (rows_per_shard_[probe] < max_rows_per_shard_) return probe;
  }
  // Every shard is at the cap (cap * num_shards rows written — possible
  // only when the caller under-provisioned the cap). Fall back to the
  // primary: a lopsided spill is still a correct one.
  return primary;
}

Status SpillWriter::Append(uint64_t global_row, RowView row) {
  KANON_FAILPOINT("shard.spill_write");
  KANON_DCHECK(row.size() == schema_.num_attributes());
  const size_t s = RouteRow(row);
  std::memcpy(record_.data(), &global_row, sizeof(global_row));
  std::memcpy(record_.data() + sizeof(global_row), row.data(),
              row.size() * sizeof(ValueCode));
  streams_[s].write(record_.data(),
                    static_cast<std::streamsize>(record_.size()));
  if (!streams_[s]) {
    return Status::IOError("write error on spill " + std::to_string(s) +
                           " at input row " + std::to_string(global_row));
  }
  hashers_[s].Update(record_);
  ++rows_per_shard_[s];
  ++rows_written_;
  return Status::OK();
}

Result<std::vector<ShardEntry>> SpillWriter::Commit() {
  std::vector<ShardEntry> entries(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    KANON_FAILPOINT("shard.spill_commit");
    streams_[s].flush();
    if (!streams_[s]) {
      return Status::IOError("flush error on spill " + std::to_string(s));
    }
    streams_[s].close();
    const std::string path = SpillPath(dir_, s);
    KANON_RETURN_NOT_OK(CommitFile(path + ".tmp", path));
    entries[s].rows = rows_per_shard_[s];
    entries[s].spill_checksum = hashers_[s].digest();
  }
  return entries;
}

Result<SpillRows> ReadSpill(const std::string& path, size_t num_attributes) {
  KANON_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  const size_t record_bytes = SpillRecordBytes(num_attributes);
  if (content.size() % record_bytes != 0) {
    return Status::IOError("spill '" + path + "' has " +
                           std::to_string(content.size()) +
                           " bytes, not a whole number of " +
                           std::to_string(record_bytes) + "-byte records");
  }
  const size_t rows = content.size() / record_bytes;
  SpillRows spill;
  spill.global_rows.resize(rows);
  spill.cells.resize(rows * num_attributes);
  const char* record = content.data();
  for (size_t i = 0; i < rows; ++i, record += record_bytes) {
    std::memcpy(&spill.global_rows[i], record, sizeof(uint64_t));
    std::memcpy(spill.cells.data() + i * num_attributes,
                record + sizeof(uint64_t), num_attributes * sizeof(ValueCode));
  }
  return spill;
}

}  // namespace shard
}  // namespace kanon
