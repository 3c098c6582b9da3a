// Sharded-driver tests: the atomic-commit I/O primitives, manifest and
// checkpoint metadata round trips, the hash partitioner and spill files,
// and the driver's end-to-end promises — composition of per-shard
// k-anonymity, the degradation ladder under injected faults, boundary
// repair, and exact suppressed-row accounting. Resume/byte-identity is
// covered separately by shard_resume_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/failpoint.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/shard/driver.h"
#include "kanon/shard/manifest.h"
#include "kanon/shard/partition.h"
#include "kanon/shard/shard_io.h"
#include "test_util.h"

namespace kanon {
namespace {

using shard::Hasher;
using shard::Manifest;
using shard::ShardEntry;
using shard::ShardMeta;
using shard::ShardOptions;
using shard::ShardedResult;
using shard::SpillRows;
using shard::SpillWriter;
using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

// A fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "kanon_shard_test_" + name;
  KANON_CHECK(shard::RemoveFilesWithSuffix(dir, "").ok());
  KANON_CHECK(shard::EnsureDir(dir).ok());
  return dir;
}

// A schema whose attribute j holds the labels `columns[j]`.
Schema LabelSchema(const std::vector<std::vector<std::string>>& columns) {
  std::vector<AttributeDomain> domains;
  for (size_t j = 0; j < columns.size(); ++j) {
    std::string name = "a";
    name += static_cast<char>('0' + j);
    domains.push_back(Unwrap(AttributeDomain::Create(name, columns[j])));
  }
  return Unwrap(Schema::Create(std::move(domains)));
}

// The codes of a row of labels under `schema`.
Record CodesOf(const Schema& schema, const std::vector<std::string>& labels) {
  Record codes(labels.size());
  for (size_t j = 0; j < labels.size(); ++j) {
    codes[j] = Unwrap(schema.attribute(j).CodeOf(labels[j]));
  }
  return codes;
}

size_t CountSuppressedRows(const GeneralizedTable& table,
                           const GeneralizationScheme& scheme) {
  const GeneralizedRecord star = scheme.Suppressed();
  size_t n = 0;
  for (size_t t = 0; t < table.num_rows(); ++t) {
    if (table.record(t) == star) ++n;
  }
  return n;
}

class ShardFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- shard_io ---

TEST(ShardIoTest, HasherMatchesFnv1aReference) {
  // FNV-1a 64-bit reference vectors.
  Hasher empty;
  EXPECT_EQ(empty.digest(), 14695981039346656037ULL);
  Hasher a;
  a.Update("a");
  EXPECT_EQ(a.digest(), 12638187200555641996ULL);
  // Incremental updates equal one-shot hashing.
  Hasher parts;
  parts.Update("foo");
  parts.Update("bar");
  Hasher whole;
  whole.Update("foobar");
  EXPECT_EQ(parts.digest(), whole.digest());
  EXPECT_EQ(shard::ChecksumHex(empty.digest()).size(), 16u);
  EXPECT_EQ(shard::ChecksumHex(0), "0000000000000000");
}

TEST(ShardIoTest, AtomicWriteRoundTripsAndChecksums) {
  const std::string dir = ScratchDir("io_roundtrip");
  const std::string path = dir + "/payload";
  const std::string content = "hello\nshard\n";
  ASSERT_TRUE(shard::WriteFileAtomic(path, content).ok());
  EXPECT_TRUE(shard::FileExists(path));
  EXPECT_FALSE(shard::FileExists(path + ".tmp"));  // Temp was renamed away.
  EXPECT_EQ(Unwrap(shard::ReadFileToString(path)), content);

  Hasher h;
  h.Update(content);
  EXPECT_EQ(Unwrap(shard::ChecksumFile(path)), h.digest());
  EXPECT_TRUE(shard::VerifyChecksum(path, h.digest()).ok());
  const Status mismatch = shard::VerifyChecksum(path, h.digest() ^ 1);
  EXPECT_FALSE(mismatch.ok());
  // The error names the actual digest, for postmortems.
  EXPECT_NE(mismatch.message().find(shard::ChecksumHex(h.digest())),
            std::string::npos);
}

TEST_F(ShardFailpointTest, TornWriteLeavesNoCommittedFile) {
  const std::string dir = ScratchDir("io_torn");
  const std::string path = dir + "/payload";
  failpoint::Arm("shard.file_write");
  EXPECT_FALSE(shard::WriteFileAtomic(path, "0123456789").ok());
  failpoint::DisarmAll();
  // The committed name must not exist; at most a detectable .tmp remains.
  EXPECT_FALSE(shard::FileExists(path));

  failpoint::Arm("shard.file_commit");
  EXPECT_FALSE(shard::WriteFileAtomic(path, "0123456789").ok());
  failpoint::DisarmAll();
  EXPECT_FALSE(shard::FileExists(path));

  // With no failpoints the same write succeeds (no stale state blocks it).
  EXPECT_TRUE(shard::WriteFileAtomic(path, "0123456789").ok());
  EXPECT_EQ(Unwrap(shard::ReadFileToString(path)), "0123456789");
}

TEST_F(ShardFailpointTest, InjectedReadAndChecksumFailuresSurface) {
  const std::string dir = ScratchDir("io_read");
  const std::string path = dir + "/payload";
  ASSERT_TRUE(shard::WriteFileAtomic(path, "bytes").ok());
  Hasher h;
  h.Update("bytes");

  failpoint::Arm("shard.file_read");
  EXPECT_FALSE(shard::ReadFileToString(path).ok());
  failpoint::DisarmAll();

  failpoint::Arm("shard.checksum");
  EXPECT_FALSE(shard::VerifyChecksum(path, h.digest()).ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(shard::VerifyChecksum(path, h.digest()).ok());
}

TEST(ShardIoTest, RemoveHelpersTolerateMissingTargets) {
  const std::string dir = ScratchDir("io_remove");
  ASSERT_TRUE(shard::WriteFileAtomic(dir + "/a.spill", "x").ok());
  ASSERT_TRUE(shard::WriteFileAtomic(dir + "/b.spill", "y").ok());
  ASSERT_TRUE(shard::WriteFileAtomic(dir + "/keep.out", "z").ok());
  ASSERT_TRUE(shard::RemoveFilesWithSuffix(dir, ".spill").ok());
  EXPECT_FALSE(shard::FileExists(dir + "/a.spill"));
  EXPECT_FALSE(shard::FileExists(dir + "/b.spill"));
  EXPECT_TRUE(shard::FileExists(dir + "/keep.out"));
  EXPECT_TRUE(shard::RemoveFilesWithSuffix(dir + "/no_such_dir", ".x").ok());
  EXPECT_TRUE(shard::RemoveFileIfExists(dir + "/keep.out").ok());
  EXPECT_TRUE(shard::RemoveFileIfExists(dir + "/keep.out").ok());  // Again.
}

// --- manifest ---

TEST(ManifestTest, FormatParseRoundTrip) {
  Manifest m;
  m.input_checksum = 0xdeadbeefcafef00dULL;
  m.scheme_checksum = 0x0123456789abcdefULL;
  m.rows = 1000;
  m.fingerprint = "k=4;method=agglomerative;distance=0;measure=EM;shards=3;prefix=2";
  m.shards = {ShardEntry{400, 1}, ShardEntry{350, 2}, ShardEntry{250, 3}};
  const Manifest back = Unwrap(Manifest::Parse(m.Format()));
  EXPECT_EQ(back.input_checksum, m.input_checksum);
  EXPECT_EQ(back.scheme_checksum, m.scheme_checksum);
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.fingerprint, m.fingerprint);
  ASSERT_EQ(back.shards.size(), 3u);
  EXPECT_EQ(back.shards[1].rows, 350u);
  EXPECT_EQ(back.shards[2].spill_checksum, 3u);
}

TEST(ManifestTest, ParseRejectsCorruptText) {
  Manifest m;
  m.rows = 10;
  m.fingerprint = "f";
  m.shards = {ShardEntry{10, 7}};
  const std::string good = m.Format();
  EXPECT_TRUE(Manifest::Parse(good).ok());
  EXPECT_FALSE(Manifest::Parse("").ok());
  EXPECT_FALSE(Manifest::Parse("not a manifest\n").ok());
  // Truncation (a torn file that somehow got committed) is detected.
  EXPECT_FALSE(Manifest::Parse(good.substr(0, good.size() / 2)).ok());
  // A manifest without its scheme line cannot vouch for the journal.
  std::string no_scheme = good;
  const size_t scheme_line = no_scheme.find("scheme ");
  ASSERT_NE(scheme_line, std::string::npos);
  no_scheme.erase(scheme_line, no_scheme.find('\n', scheme_line) + 1 -
                                   scheme_line);
  EXPECT_FALSE(Manifest::Parse(no_scheme).ok());
  // Shard row totals must add up to the declared row count.
  Manifest bad = m;
  bad.shards[0].rows = 9;
  EXPECT_FALSE(Manifest::Parse(bad.Format()).ok());
}

TEST(ManifestTest, ShardMetaRoundTripPreservesEveryField) {
  ShardMeta meta;
  meta.rows = 123;
  meta.out_checksum = 0x0123456789abcdefULL;
  meta.loss = 1.2345678901234567;
  meta.attempts = 3;
  meta.degraded = true;
  meta.stop_reason = StopReason::kStepBudget;
  meta.suppressed = true;
  meta.engine_suppressed = 7;
  meta.steps = 999;
  const ShardMeta back = Unwrap(ShardMeta::Parse(meta.Format()));
  EXPECT_EQ(back.rows, meta.rows);
  EXPECT_EQ(back.out_checksum, meta.out_checksum);
  EXPECT_DOUBLE_EQ(back.loss, meta.loss);  // %.17g survives the round trip.
  EXPECT_EQ(back.attempts, meta.attempts);
  EXPECT_EQ(back.degraded, meta.degraded);
  EXPECT_EQ(back.stop_reason, meta.stop_reason);
  EXPECT_EQ(back.suppressed, meta.suppressed);
  EXPECT_EQ(back.engine_suppressed, meta.engine_suppressed);
  EXPECT_EQ(back.steps, meta.steps);
  EXPECT_FALSE(ShardMeta::Parse("garbage").ok());
}

TEST(ManifestTest, PathHelpersNumberShardsStably) {
  EXPECT_EQ(shard::ManifestPath("wd"), "wd/MANIFEST");
  EXPECT_EQ(shard::SpillPath("wd", 0), "wd/shard-0000.spill");
  EXPECT_EQ(shard::ShardOutPath("wd", 17), "wd/shard-0017.out");
  EXPECT_EQ(shard::ShardMetaPath("wd", 4095), "wd/shard-4095.meta");
}

// --- partition ---

TEST(PartitionTest, ShardOfRowIsDeterministicAndPrefixBound) {
  const Schema schema =
      LabelSchema({{"a", "ab"}, {"b", "bc", "c"}, {"c", "ZZZ"}});
  const Record row = CodesOf(schema, {"a", "b", "c"});
  const size_t s = shard::ShardOfRow(schema, row, 2, 64);
  EXPECT_LT(s, 64u);
  EXPECT_EQ(shard::ShardOfRow(schema, row, 2, 64), s);  // Pure function.
  // Labels beyond the prefix do not affect routing...
  EXPECT_EQ(shard::ShardOfRow(schema, CodesOf(schema, {"a", "b", "ZZZ"}), 2,
                              64),
            s);
  // ...and a single shard absorbs everything.
  EXPECT_EQ(shard::ShardOfRow(schema, row, 2, 1), 0u);
  // Length-delimited hashing: {"ab","c"} and {"a","bc"} hash apart.
  EXPECT_NE(shard::ShardOfRow(schema, CodesOf(schema, {"ab", "c", "c"}), 2,
                              1u << 30),
            shard::ShardOfRow(schema, CodesOf(schema, {"a", "bc", "c"}), 2,
                              1u << 30));
  // Routing reads labels, not codes: the same labels numbered differently
  // route alike.
  const Schema reversed =
      LabelSchema({{"ab", "a"}, {"c", "bc", "b"}, {"ZZZ", "c"}});
  EXPECT_EQ(shard::ShardOfRow(reversed, CodesOf(reversed, {"a", "b", "c"}),
                              2, 64),
            s);
}

TEST(PartitionTest, DeriveNumShardsTracksBudget) {
  EXPECT_EQ(shard::DeriveNumShards(1000000, 0), 1u);  // Budget off.
  EXPECT_EQ(shard::DeriveNumShards(0, 64), 1u);
  // Tighter budgets mean more shards, clamped to the supported range.
  const size_t loose = shard::DeriveNumShards(1000000, 256);
  const size_t tight = shard::DeriveNumShards(1000000, 1);
  EXPECT_GE(tight, loose);
  EXPECT_GE(tight, 2u);
  EXPECT_LE(shard::DeriveNumShards(1u << 30, 1), 4096u);
}

TEST(PartitionTest, SpillWriterRoundTripsRowsAndChecksums) {
  const std::string dir = ScratchDir("spill_roundtrip");
  const Schema schema =
      LabelSchema({{"a", "b", "c"}, {"1", "2", "3", "4", "5"}});
  SpillWriter writer(dir, schema, 4, /*prefix=*/1);
  ASSERT_TRUE(writer.Open().ok());
  const std::vector<Record> rows = {
      CodesOf(schema, {"a", "1"}), CodesOf(schema, {"b", "2"}),
      CodesOf(schema, {"a", "3"}), CodesOf(schema, {"c", "4"}),
      CodesOf(schema, {"b", "5"})};
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(writer.Append(i, rows[i]).ok());
  }
  EXPECT_EQ(writer.rows_written(), rows.size());
  const std::vector<ShardEntry> entries = Unwrap(writer.Commit());
  ASSERT_EQ(entries.size(), 4u);
  uint64_t total = 0;
  std::map<uint64_t, Record> seen;
  for (size_t s = 0; s < entries.size(); ++s) {
    total += entries[s].rows;
    const std::string path = shard::SpillPath(dir, s);
    // The recorded checksum matches the committed file's bytes.
    EXPECT_EQ(Unwrap(shard::ChecksumFile(path)), entries[s].spill_checksum);
    // Fixed-width records: a uint64_t row index, then r codes.
    EXPECT_EQ(Unwrap(shard::ReadFileToString(path)).size(),
              entries[s].rows * (sizeof(uint64_t) + 2 * sizeof(ValueCode)));
    const SpillRows back = Unwrap(shard::ReadSpill(path, 2));
    ASSERT_EQ(back.cells.size(), 2 * back.global_rows.size());
    EXPECT_EQ(back.global_rows.size(), entries[s].rows);
    for (size_t i = 0; i < back.global_rows.size(); ++i) {
      const Record row(back.cells.begin() + 2 * i,
                       back.cells.begin() + 2 * i + 2);
      seen[back.global_rows[i]] = row;
      // Same-prefix rows co-locate: routing is a function of labels alone.
      EXPECT_EQ(shard::ShardOfRow(schema, row, 1, 4), s);
    }
  }
  EXPECT_EQ(total, rows.size());
  ASSERT_EQ(seen.size(), rows.size());  // Every global row exactly once.
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(seen[i], rows[i]);
}

TEST(PartitionTest, SpillWriterSpreadsSkewHeavyPrefixes) {
  // Every row shares one quasi-identifier prefix — the worst-case skew.
  // With a per-shard cap the overflow must spread across shards instead of
  // concentrating the whole input in one (which would defeat the memory
  // budget), and repartitioning the same input must route identically.
  const size_t kShards = 4;
  const uint64_t kCap = 8;
  const size_t kRows = 30;
  std::vector<std::string> suffixes;
  for (size_t i = 0; i < kRows; ++i) {
    // Bound to a named lvalue: the (const char*, string&&) operator+ trips
    // a GCC 12 -Wrestrict false positive under -Werror.
    const std::string suffix = std::to_string(i);
    suffixes.push_back("v" + suffix);
  }
  const Schema schema = LabelSchema({{"same"}, {"prefix"}, suffixes});
  std::vector<Record> rows;
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back({0, 0, static_cast<ValueCode>(i)});
  }
  std::vector<ShardEntry> first;
  for (int round = 0; round < 2; ++round) {
    const std::string dir = ScratchDir("spill_skew");
    SpillWriter writer(dir, schema, kShards, /*prefix=*/2, kCap);
    ASSERT_TRUE(writer.Open().ok());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(writer.Append(i, rows[i]).ok());
    }
    const std::vector<ShardEntry> entries = Unwrap(writer.Commit());
    uint64_t total = 0;
    for (size_t s = 0; s < entries.size(); ++s) {
      EXPECT_LE(entries[s].rows, kCap) << "shard " << s << " exceeds the cap";
      total += entries[s].rows;
    }
    EXPECT_EQ(total, kRows);
    if (round == 0) {
      first = entries;
    } else {
      // Deterministic: the rerun reproduces identical spills.
      for (size_t s = 0; s < entries.size(); ++s) {
        EXPECT_EQ(entries[s].rows, first[s].rows);
        EXPECT_EQ(entries[s].spill_checksum, first[s].spill_checksum);
      }
    }
  }

  // Uncapped (the default), the same input lands in one shard.
  const std::string dir = ScratchDir("spill_skew_uncapped");
  SpillWriter writer(dir, schema, kShards, /*prefix=*/2);
  ASSERT_TRUE(writer.Open().ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(writer.Append(i, rows[i]).ok());
  }
  const std::vector<ShardEntry> entries = Unwrap(writer.Commit());
  uint64_t max_rows = 0;
  for (const ShardEntry& e : entries) max_rows = std::max(max_rows, e.rows);
  EXPECT_EQ(max_rows, kRows);
}

TEST_F(ShardFailpointTest, SpillFailpointsAbortThePartitioning) {
  const std::string dir = ScratchDir("spill_fail");
  const Schema schema = LabelSchema({{"a"}, {"b"}});
  const Record row = CodesOf(schema, {"a", "b"});
  {
    SpillWriter writer(dir, schema, 2, 1);
    ASSERT_TRUE(writer.Open().ok());
    failpoint::Arm("shard.spill_write");
    EXPECT_FALSE(writer.Append(0, row).ok());
    failpoint::DisarmAll();
  }
  {
    SpillWriter writer(dir, schema, 2, 1);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append(0, row).ok());
    failpoint::Arm("shard.spill_commit");
    EXPECT_FALSE(writer.Commit().ok());
    failpoint::DisarmAll();
  }
  // An abandoned writer leaves only temporaries; the next Open() sweeps
  // them and the partitioning succeeds cleanly.
  SpillWriter writer(dir, schema, 2, 1);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append(0, row).ok());
  const std::vector<ShardEntry> entries = Unwrap(writer.Commit());
  EXPECT_EQ(entries[0].rows + entries[1].rows, 1u);
}

TEST(PartitionTest, ReadSpillRejectsPartialRecords) {
  const std::string dir = ScratchDir("spill_columns");
  const Schema schema = LabelSchema({{"a"}, {"b"}});
  SpillWriter writer(dir, schema, 1, 1);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append(0, CodesOf(schema, {"a", "b"})).ok());
  ASSERT_TRUE(Unwrap(writer.Commit()).size() == 1u);
  const std::string path = shard::SpillPath(dir, 0);
  EXPECT_TRUE(shard::ReadSpill(path, 2).ok());
  // Read with the wrong attribute count, the 12-byte record is not a
  // whole number of 14-byte ones.
  EXPECT_EQ(shard::ReadSpill(path, 3).status().code(), StatusCode::kIOError);
  // A truncated spill is an error, not a short read.
  const std::string bytes = Unwrap(shard::ReadFileToString(path));
  ASSERT_TRUE(
      shard::WriteFileAtomic(path, bytes.substr(0, bytes.size() - 1)).ok());
  const Status truncated = shard::ReadSpill(path, 2).status();
  EXPECT_EQ(truncated.code(), StatusCode::kIOError);
  EXPECT_NE(truncated.message().find("not a whole number"), std::string::npos)
      << truncated.ToString();
}

// --- driver ---

AnonymizerConfig BaseConfig(size_t k) {
  AnonymizerConfig config;
  config.k = k;
  config.method = AnonymizationMethod::kAgglomerative;
  return config;
}

TEST(ShardedDriverTest, MergedOutputIsKAnonymousAndCompletePerShardCount) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 60, 5);
  for (const size_t shards : {1u, 2u, 4u, 7u}) {
    ShardOptions options;
    options.num_shards = shards;
    options.work_dir = ScratchDir("driver_basic");
    const ShardedResult result = Unwrap(shard::ShardedAnonymize(
        d, scheme, EntropyMeasure(), BaseConfig(k), options));
    EXPECT_EQ(result.rows, d.num_rows());
    EXPECT_EQ(result.table.num_rows(), d.num_rows());
    EXPECT_EQ(result.num_shards, shards);
    EXPECT_TRUE(Unwrap(IsKAnonymous(result.table, k)))
        << shards << " shards broke the global guarantee";
    // Exact suppressed-row accounting at every shard count: the reported
    // number is a recount on the published table.
    EXPECT_EQ(result.records_suppressed,
              CountSuppressedRows(result.table, *scheme))
        << "at " << shards << " shards";
    // Every record stays a generalization of its input row (Def 3.3).
    for (size_t t = 0; t < result.table.num_rows(); ++t) {
      ASSERT_TRUE(result.table.ConsistentPair(d, t, t)) << "row " << t;
    }
  }
}

TEST(ShardedDriverTest, SingleShardMatchesUnshardedEngine) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 40, 9);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  const AnonymizationResult direct =
      Unwrap(Anonymize(d, loss, BaseConfig(k)));

  ShardOptions options;
  options.num_shards = 1;
  options.work_dir = ScratchDir("driver_single");
  const ShardedResult sharded = Unwrap(shard::ShardedAnonymize(
      d, scheme, EntropyMeasure(), BaseConfig(k), options));
  EXPECT_TRUE(sharded.table == direct.table)
      << "1-shard run must reduce to the plain engine";
  EXPECT_DOUBLE_EQ(sharded.loss, direct.loss);
}

TEST(ShardedDriverTest, NonComposableMethodsAreRejectedUpFront) {
  auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 20, 3);
  ShardOptions options;
  options.num_shards = 2;
  options.work_dir = ScratchDir("driver_reject");
  for (const AnonymizationMethod method :
       {AnonymizationMethod::kKKNearestNeighbors,
        AnonymizationMethod::kKKGreedyExpansion,
        AnonymizationMethod::kGlobal}) {
    AnonymizerConfig config = BaseConfig(3);
    config.method = method;
    const auto result = shard::ShardedAnonymize(d, scheme, EntropyMeasure(),
                                                config, options);
    EXPECT_FALSE(result.ok()) << AnonymizationMethodName(method);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // And a missing work_dir is caught before any work happens.
  ShardOptions no_dir;
  no_dir.num_shards = 2;
  EXPECT_FALSE(
      shard::ShardedAnonymize(d, scheme, EntropyMeasure(), BaseConfig(3),
                              no_dir)
          .ok());
}

// The in-memory path sends the dataset's codes to the spills as they are,
// so a dataset whose labels are numbered otherwise than the scheme's is
// refused, even when every domain has the same size.
TEST(ShardedDriverTest, DatasetWithOtherLabelsIsRejected) {
  auto scheme = SmallScheme();
  AttributeDomain zip = AttributeDomain::IntegerRange("zip", 0, 7);
  AttributeDomain sex = Unwrap(AttributeDomain::Create("sex", {"F", "M"}));
  Dataset d(Unwrap(Schema::Create({zip, sex})));
  for (ValueCode v = 0; v < 8; ++v) {
    ASSERT_TRUE(d.AppendRow({v, static_cast<ValueCode>(v % 2)}).ok());
  }
  ShardOptions options;
  options.num_shards = 2;
  options.work_dir = ScratchDir("driver_other_labels");
  const auto result = shard::ShardedAnonymize(d, scheme, EntropyMeasure(),
                                              BaseConfig(2), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// A reference boundary repair over a std::map keyed by record: undersized
// identical-record groups, visited in record order, pool to their join,
// and a pool still short of k absorbs the smallest regular group (the
// first in record order on ties). Returns the rows coarsened.
size_t ReferenceRepair(const GeneralizationScheme& scheme, size_t k,
                       GeneralizedTable* table) {
  std::map<GeneralizedRecord, std::vector<size_t>> groups;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    groups[table->record(i)].push_back(i);
  }
  std::vector<size_t> pool;
  GeneralizedRecord joined;
  for (const auto& [record, rows] : groups) {
    if (rows.size() >= k) continue;
    joined = joined.empty() ? record : scheme.JoinRecords(joined, record);
    pool.insert(pool.end(), rows.begin(), rows.end());
  }
  if (pool.empty()) return 0;
  if (pool.size() < k) {
    const std::pair<const GeneralizedRecord, std::vector<size_t>>* best =
        nullptr;
    for (const auto& group : groups) {
      if (group.second.size() < k) continue;
      if (best == nullptr || group.second.size() < best->second.size()) {
        best = &group;
      }
    }
    KANON_CHECK(best != nullptr, "no regular group to absorb");
    joined = scheme.JoinRecords(joined, best->first);
    pool.insert(pool.end(), best->second.begin(), best->second.end());
  }
  for (size_t row : pool) table->SetRecord(row, joined);
  return pool.size();
}

TEST(ShardedDriverTest, UndersizedShardsAreRepairedToGlobalK) {
  // Far more shards than rows/k: several shards get fewer than k rows, so
  // the per-shard outputs cannot all be k-anonymous on their own and the
  // cross-shard boundary-repair pass must restore the global guarantee.
  // With seed 21 the undersized shards' suppressed rows already form one
  // group of at least k, so the repair has nothing to do; seed 32 leaves
  // groups short of k that only the repair fixes.
  auto scheme = SmallScheme();
  const size_t k = 4;
  for (const uint64_t seed : {21u, 32u}) {
    SCOPED_TRACE(seed);
    const Dataset d = SmallRandomDataset(*scheme, 13, seed);
    ShardOptions options;
    options.num_shards = 6;
    options.work_dir = ScratchDir("driver_repair");
    const ShardedResult result = Unwrap(shard::ShardedAnonymize(
        d, scheme, EntropyMeasure(), BaseConfig(k), options));
    EXPECT_TRUE(Unwrap(IsKAnonymous(result.table, k)));
    EXPECT_EQ(result.table.num_rows(), d.num_rows());
    EXPECT_EQ(result.records_suppressed,
              CountSuppressedRows(result.table, *scheme));
    EXPECT_EQ(result.boundary_repaired > 0, seed == 32);

    // The merged table before the repair, rebuilt from the shard
    // checkpoints left in the work dir, then repaired by the reference:
    // the published table must be exactly that.
    std::vector<GeneralizedRecord> merged(d.num_rows());
    for (size_t s = 0; s < result.num_shards; ++s) {
      if (result.shards[s].rows == 0) continue;
      const SpillRows spill = Unwrap(shard::ReadSpill(
          shard::SpillPath(options.work_dir, s), scheme->num_attributes()));
      const GeneralizedTable out = Unwrap(
          shard::ReadShardTable(scheme, shard::ShardOutPath(options.work_dir, s),
                                result.shards[s].rows));
      ASSERT_EQ(out.num_rows(), spill.global_rows.size());
      for (size_t i = 0; i < out.num_rows(); ++i) {
        merged[spill.global_rows[i]] = out.record(i);
      }
    }
    GeneralizedTable expected(scheme);
    for (const GeneralizedRecord& record : merged) {
      expected.AppendRecord(record);
    }
    EXPECT_EQ(ReferenceRepair(*scheme, k, &expected),
              result.boundary_repaired);
    EXPECT_TRUE(expected == result.table);
  }
}

// Labels holding the old text spill's delimiter and line breaks shard and
// resume like any other: the journal carries codes, never label text.
TEST(ShardedDriverTest, LabelsWithDelimitersAndNewlinesShardAndResume) {
  const Schema schema = LabelSchema(
      {{"a,b", "c\nd", "e\rf", "g\r\nh"}, {"x,", "\ny"}});
  std::vector<Hierarchy> hierarchies;
  hierarchies.push_back(Unwrap(Hierarchy::Intervals(4, {2})));
  hierarchies.push_back(Unwrap(Hierarchy::SuppressionOnly(2)));
  auto scheme = std::make_shared<const GeneralizationScheme>(Unwrap(
      GeneralizationScheme::Create(schema, std::move(hierarchies))));
  Dataset d(schema);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(d.AppendRow({static_cast<ValueCode>((i * 7) % 4),
                             static_cast<ValueCode>((i / 3) % 2)})
                    .ok());
  }
  const size_t k = 3;
  ShardOptions options;
  options.num_shards = 3;
  options.work_dir = ScratchDir("driver_labels");
  const ShardedResult fresh = Unwrap(shard::ShardedAnonymize(
      d, scheme, EntropyMeasure(), BaseConfig(k), options));
  EXPECT_TRUE(Unwrap(IsKAnonymous(fresh.table, k)));
  size_t nonempty = 0;
  for (const auto& outcome : fresh.shards) nonempty += outcome.rows > 0;
  EXPECT_GE(nonempty, 2u);

  options.resume = true;
  const ShardedResult resumed = Unwrap(shard::ShardedAnonymize(
      d, scheme, EntropyMeasure(), BaseConfig(k), options));
  EXPECT_EQ(resumed.shards_resumed, nonempty);
  EXPECT_TRUE(resumed.table == fresh.table);
  std::ostringstream fresh_csv, resumed_csv;
  ASSERT_TRUE(WriteGeneralizedCsv(fresh.table, fresh_csv).ok());
  ASSERT_TRUE(WriteGeneralizedCsv(resumed.table, resumed_csv).ok());
  EXPECT_EQ(resumed_csv.str(), fresh_csv.str());
}

TEST(ShardedDriverTest, FewerRowsThanKIsAnError) {
  auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 3, 2);
  ShardOptions options;
  options.num_shards = 2;
  options.work_dir = ScratchDir("driver_toosmall");
  EXPECT_FALSE(
      shard::ShardedAnonymize(d, scheme, EntropyMeasure(), BaseConfig(5),
                              options)
          .ok());
}

// The sharded path words an out-of-range k as the engines do, naming k and
// the number of records, before any shard runs.
TEST(ShardedDriverTest, OutOfRangeKNamesKAndTheNumberOfRecords) {
  auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 8, 2);
  ShardOptions options;
  options.num_shards = 2;
  options.work_dir = ScratchDir("driver_k_range");
  const auto zero = shard::ShardedAnonymize(d, scheme, EntropyMeasure(),
                                            BaseConfig(0), options);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(zero.status().message(),
            "k = 0 is below 1; the number of records is 8");
  const auto nine = shard::ShardedAnonymize(d, scheme, EntropyMeasure(),
                                            BaseConfig(9), options);
  ASSERT_FALSE(nine.ok());
  EXPECT_EQ(nine.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(nine.status().message(), "k = 9 exceeds the number of records 8");
}

TEST_F(ShardFailpointTest, CrashedShardsRetryThenSuppressAndStillVerify) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 50, 31);
  // Every engine attempt fails: each shard exhausts its retry ladder and is
  // published fully suppressed. The run completes, reports the degradation
  // honestly, and the output still satisfies k-anonymity.
  failpoint::Arm("shard.run");
  ShardOptions options;
  options.num_shards = 3;
  options.max_attempts = 2;
  options.work_dir = ScratchDir("driver_crash_all");
  const ShardedResult result = Unwrap(shard::ShardedAnonymize(
      d, scheme, EntropyMeasure(), BaseConfig(k), options));
  failpoint::DisarmAll();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.shards_suppressed, 3u);
  // Every shard burned max_attempts: retries = (max_attempts - 1) / shard.
  EXPECT_EQ(result.shard_retries, 3u);
  EXPECT_EQ(result.records_suppressed, d.num_rows());
  EXPECT_TRUE(Unwrap(IsKAnonymous(result.table, k)));
  EXPECT_EQ(CountSuppressedRows(result.table, *scheme), d.num_rows());
  // Each suppressed shard says why: its last attempt's failure.
  ASSERT_EQ(result.shards.size(), 3u);
  for (const shard::ShardOutcome& outcome : result.shards) {
    EXPECT_NE(outcome.error.find("failpoint 'shard.run'"), std::string::npos)
        << outcome.error;
  }
}

TEST_F(ShardFailpointTest, FaultIsolationConfinesDamageToTheFailingShard) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 50, 31);
  // Skip the first two hits: shards 0 and 1 run clean, every attempt of
  // shard 2 fails (armed failpoints are sticky). Only shard 2 is
  // suppressed; its healthy siblings' outputs are untouched.
  failpoint::Arm("shard.run", /*after=*/2);
  ShardOptions options;
  options.num_shards = 3;
  options.max_attempts = 3;
  options.work_dir = ScratchDir("driver_crash_one");
  const ShardedResult result = Unwrap(shard::ShardedAnonymize(
      d, scheme, EntropyMeasure(), BaseConfig(k), options));
  failpoint::DisarmAll();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.shards_suppressed, 1u);
  EXPECT_EQ(result.shard_retries, 2u);  // max_attempts - 1, one shard.
  ASSERT_EQ(result.shards.size(), 3u);
  EXPECT_FALSE(result.shards[0].suppressed);
  EXPECT_EQ(result.shards[0].attempts, 1u);
  EXPECT_FALSE(result.shards[1].suppressed);
  EXPECT_TRUE(result.shards[2].suppressed);
  EXPECT_EQ(result.shards[2].attempts, 3u);
  EXPECT_EQ(result.shards[0].error, "");
  EXPECT_EQ(result.shards[1].error, "");
  EXPECT_NE(result.shards[2].error.find("failpoint 'shard.run'"),
            std::string::npos)
      << result.shards[2].error;
  EXPECT_TRUE(Unwrap(IsKAnonymous(result.table, k)));
  // The damage is bounded by the failing shard's row count (boundary
  // repair may coarsen a few more rows, never suppress extra ones).
  EXPECT_EQ(result.records_suppressed,
            CountSuppressedRows(result.table, *scheme));
  EXPECT_GE(result.records_suppressed, result.shards[2].rows);
}

TEST(ShardedDriverTest, ParentBudgetIsSharedAndChargedAcrossShards) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 50, 41);
  RunContext parent;
  parent.set_step_budget(5);  // Far too small for 50 rows.
  AnonymizerConfig config = BaseConfig(k);
  config.run_context = &parent;
  ShardOptions options;
  options.num_shards = 2;
  options.work_dir = ScratchDir("driver_budget");
  const ShardedResult result = Unwrap(shard::ShardedAnonymize(
      d, scheme, EntropyMeasure(), config, options));
  // A budget stop is not an error: the run degrades but still verifies.
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, StopReason::kStepBudget);
  EXPECT_TRUE(Unwrap(IsKAnonymous(result.table, k)));
  EXPECT_EQ(parent.RemainingSteps(), 0u);
}

TEST(ShardedDriverTest, CsvFileAndInMemoryPathsAgreeCellForCell) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 45, 17);
  const std::string dir = ScratchDir("driver_csv");
  const std::string csv_path = dir + "/input.csv";
  {
    std::ofstream out(csv_path);
    ASSERT_TRUE(WriteCsv(d, out).ok());
  }
  ShardOptions options;
  options.num_shards = 3;
  options.work_dir = dir + "/wd_mem";
  const ShardedResult from_memory = Unwrap(shard::ShardedAnonymize(
      d, scheme, EntropyMeasure(), BaseConfig(k), options));
  options.work_dir = dir + "/wd_csv";
  const ShardedResult from_file = Unwrap(shard::ShardedAnonymizeCsvFile(
      csv_path, scheme, CsvOptions(), EntropyMeasure(), BaseConfig(k),
      options));
  EXPECT_TRUE(from_file.table == from_memory.table)
      << "streaming ingestion changed the output";
  // The CSV path counts values in its counting pass; they must price the
  // table to the bit as the counts taken from the whole dataset do.
  EXPECT_EQ(std::bit_cast<uint64_t>(from_file.loss),
            std::bit_cast<uint64_t>(from_memory.loss));
  EXPECT_EQ(std::bit_cast<uint64_t>(from_file.loss),
            std::bit_cast<uint64_t>(
                PrecomputedLoss(scheme, d, EntropyMeasure())
                    .TableLoss(from_file.table)));
}

// The sharded CSV path checks its input like ReadCsv: a header that does
// not match the schema names the column, and a ragged row names its line.
TEST(ShardedDriverTest, CsvFileErrorsNameTheColumnAndTheLine) {
  auto scheme = SmallScheme();
  const std::string dir = ScratchDir("driver_csv_errors");
  const auto run = [&](const std::string& text) {
    const std::string csv_path = dir + "/input.csv";
    {
      std::ofstream out(csv_path);
      out << text;
    }
    ShardOptions options;
    options.num_shards = 2;
    options.work_dir = dir + "/wd";
    return shard::ShardedAnonymizeCsvFile(csv_path, scheme, CsvOptions(),
                                          EntropyMeasure(), BaseConfig(2),
                                          options)
        .status();
  };
  const Status header = run("zip,gender\n1,M\n2,F\n");
  EXPECT_EQ(header.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(header.message().find("'gender'"), std::string::npos)
      << header.ToString();

  const Status ragged = run("zip,sex\n1,M\n2,F,extra\n3,M\n");
  EXPECT_EQ(ragged.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ragged.message().find("line 3"), std::string::npos)
      << ragged.ToString();
}

}  // namespace
}  // namespace kanon
