// Checkpoint/resume acceptance: a sharded run killed at EVERY checkpoint
// boundary (the crash window between a shard's .out and .meta commits),
// then resumed — possibly at a different worker thread count — must
// reproduce byte-identical output, resume exactly the shards that had
// committed, and never trust a torn or corrupted checkpoint.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/failpoint.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/shard/driver.h"
#include "kanon/shard/manifest.h"
#include "kanon/shard/partition.h"
#include "kanon/shard/shard_io.h"
#include "test_util.h"

namespace kanon {
namespace {

using shard::ShardOptions;
using shard::ShardedResult;
using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

constexpr size_t kK = 3;
constexpr size_t kShards = 4;

class ShardResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = SmallScheme();
    dataset_ = std::make_unique<Dataset>(
        SmallRandomDataset(*scheme_, 60, 77));
  }
  void TearDown() override { failpoint::DisarmAll(); }

  std::string FreshDir(const std::string& name) {
    const std::string dir =
        ::testing::TempDir() + "kanon_shard_resume_" + name;
    KANON_CHECK(shard::RemoveFilesWithSuffix(dir, "").ok());
    KANON_CHECK(shard::EnsureDir(dir).ok());
    return dir;
  }

  AnonymizerConfig Config(size_t threads) const {
    AnonymizerConfig config;
    config.k = kK;
    config.method = AnonymizationMethod::kAgglomerative;
    config.num_threads = threads;
    return config;
  }

  ShardOptions Options(const std::string& dir, bool resume) const {
    ShardOptions options;
    options.num_shards = kShards;
    options.work_dir = dir;
    options.resume = resume;
    return options;
  }

  Result<ShardedResult> Run(const std::string& dir, bool resume,
                            size_t threads) {
    return shard::ShardedAnonymize(*dataset_, scheme_, EntropyMeasure(),
                                   Config(threads), Options(dir, resume));
  }

  /// The uninterrupted run's output every resumed run must reproduce.
  ShardedResult Reference() {
    return Unwrap(Run(FreshDir("reference"), /*resume=*/false,
                      /*threads=*/1));
  }

  /// Rewrites shard `s`'s spill as `bytes` and records their checksum in
  /// the manifest, so the damage gets past the resume's checksum check.
  static void RewriteSpill(const std::string& dir, size_t s,
                           const std::string& bytes) {
    ASSERT_TRUE(shard::WriteFileAtomic(shard::SpillPath(dir, s), bytes).ok());
    shard::Manifest manifest = Unwrap(shard::Manifest::Parse(
        Unwrap(shard::ReadFileToString(shard::ManifestPath(dir)))));
    manifest.shards[s].spill_checksum =
        Unwrap(shard::ChecksumFile(shard::SpillPath(dir, s)));
    ASSERT_TRUE(shard::WriteFileAtomic(shard::ManifestPath(dir),
                                       manifest.Format())
                    .ok());
  }

  std::shared_ptr<const GeneralizationScheme> scheme_;
  std::unique_ptr<Dataset> dataset_;
};

TEST_F(ShardResumeTest, KilledAtEveryCheckpointBoundaryResumesIdentically) {
  const ShardedResult reference = Reference();
  ASSERT_TRUE(Unwrap(IsKAnonymous(reference.table, kK)));

  // Boundary b: shards 0..b-1 committed their checkpoints, the crash lands
  // between shard b's .out and .meta writes (the torn-checkpoint window).
  // Resume at varying thread counts — output is thread-count invariant, so
  // the thread count is deliberately absent from the manifest fingerprint.
  const size_t thread_counts[] = {1, 2, 4};
  for (size_t boundary = 0; boundary < kShards; ++boundary) {
    const std::string dir =
        FreshDir("kill_" + std::to_string(boundary));
    failpoint::Arm("shard.checkpoint_commit", static_cast<int>(boundary));
    const Result<ShardedResult> killed =
        Run(dir, /*resume=*/false, /*threads=*/1);
    failpoint::DisarmAll();
    ASSERT_FALSE(killed.ok()) << "boundary " << boundary
                              << ": the injected crash did not surface";
    // The interrupted directory holds shard b's .out without its .meta —
    // exactly the state a mid-commit kill leaves behind.
    EXPECT_TRUE(shard::FileExists(shard::ShardOutPath(dir, boundary)));
    EXPECT_FALSE(shard::FileExists(shard::ShardMetaPath(dir, boundary)));

    const size_t threads = thread_counts[boundary % 3];
    const ShardedResult resumed =
        Unwrap(Run(dir, /*resume=*/true, threads));
    EXPECT_TRUE(resumed.table == reference.table)
        << "resume after a kill at boundary " << boundary << " (threads "
        << threads << ") diverged";
    EXPECT_DOUBLE_EQ(resumed.loss, reference.loss);
    EXPECT_EQ(resumed.shards_resumed, boundary)
        << "exactly the committed shards must be reused";
    EXPECT_FALSE(resumed.degraded);
  }
}

TEST_F(ShardResumeTest, ResumeOfCompletedRunReusesEveryShard) {
  const std::string dir = FreshDir("complete");
  const ShardedResult first = Unwrap(Run(dir, false, 2));
  for (const size_t threads : {1u, 4u}) {
    const ShardedResult again = Unwrap(Run(dir, true, threads));
    EXPECT_TRUE(again.table == first.table);
    EXPECT_EQ(again.shards_resumed, kShards);
    ASSERT_EQ(again.shards.size(), kShards);
    for (const auto& outcome : again.shards) {
      EXPECT_TRUE(outcome.resumed);
    }
  }
}

TEST_F(ShardResumeTest, CorruptedCheckpointIsReRunNotTrusted) {
  const ShardedResult reference = Reference();
  const std::string dir = FreshDir("corrupt");
  ASSERT_TRUE(Run(dir, false, 1).ok());

  // Flip bytes in a committed .out: its checksum no longer matches the
  // .meta, so resume must silently redo that shard.
  {
    std::ofstream out(shard::ShardOutPath(dir, 1),
                      std::ios::in | std::ios::out);
    ASSERT_TRUE(out.is_open());
    out.seekp(0);
    out << "XXXX";
  }
  const ShardedResult resumed = Unwrap(Run(dir, true, 1));
  EXPECT_EQ(resumed.shards_resumed, kShards - 1);
  EXPECT_TRUE(resumed.table == reference.table);

  // A deleted .out with a surviving .meta is likewise redone.
  ASSERT_TRUE(
      shard::RemoveFileIfExists(shard::ShardOutPath(dir, 2)).ok());
  const ShardedResult redone = Unwrap(Run(dir, true, 1));
  EXPECT_EQ(redone.shards_resumed, kShards - 1);
  EXPECT_TRUE(redone.table == reference.table);
}

// A checkpoint whose checksum holds but whose cells do not fit the scheme
// (here a SetId past its hierarchy) is a damaged checkpoint: the shard is
// re-run, and nothing aborts.
TEST_F(ShardResumeTest, CheckpointSetIdOutsideItsHierarchyIsReRun) {
  const ShardedResult reference = Reference();
  const std::string dir = FreshDir("bad_set_id");
  ASSERT_TRUE(Run(dir, false, 1).ok());
  const std::string out_path = shard::ShardOutPath(dir, 1);
  std::string cells = Unwrap(shard::ReadFileToString(out_path));
  ASSERT_GE(cells.size(), sizeof(SetId));
  const SetId bad = static_cast<SetId>(scheme_->hierarchy(0).num_sets());
  std::memcpy(cells.data(), &bad, sizeof(bad));
  ASSERT_TRUE(shard::WriteFileAtomic(out_path, cells).ok());
  shard::ShardMeta meta = Unwrap(shard::ShardMeta::Parse(
      Unwrap(shard::ReadFileToString(shard::ShardMetaPath(dir, 1)))));
  meta.out_checksum = Unwrap(shard::ChecksumFile(out_path));
  ASSERT_TRUE(
      shard::WriteFileAtomic(shard::ShardMetaPath(dir, 1), meta.Format())
          .ok());
  EXPECT_FALSE(shard::ReadShardTable(scheme_, out_path, meta.rows).ok());

  const ShardedResult resumed = Unwrap(Run(dir, true, 1));
  EXPECT_EQ(resumed.shards_resumed, kShards - 1);
  EXPECT_FALSE(resumed.shards[1].resumed);
  EXPECT_TRUE(resumed.table == reference.table);
}

// A spill that is not a whole number of records is an error on resume,
// never an abort or a silently shorter shard.
TEST_F(ShardResumeTest, SpillWithAPartialRecordIsAnError) {
  const std::string dir = FreshDir("partial_spill");
  ASSERT_TRUE(Run(dir, false, 1).ok());
  const std::string bytes =
      Unwrap(shard::ReadFileToString(shard::SpillPath(dir, 2)));
  RewriteSpill(dir, 2, bytes + "x");
  const Result<ShardedResult> resumed = Run(dir, true, 1);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kIOError);
  EXPECT_NE(resumed.status().message().find("not a whole number"),
            std::string::npos)
      << resumed.status().ToString();
}

// A spill code outside its attribute's domain fails the shard's dataset
// check when the shard re-runs: an error naming the shard, never an abort.
TEST_F(ShardResumeTest, SpillCodeOutsideItsDomainIsAnError) {
  const std::string dir = FreshDir("bad_code");
  ASSERT_TRUE(Run(dir, false, 1).ok());
  // Without its .meta the shard re-runs from the spill on resume.
  ASSERT_TRUE(shard::RemoveFileIfExists(shard::ShardMetaPath(dir, 2)).ok());
  std::string bytes =
      Unwrap(shard::ReadFileToString(shard::SpillPath(dir, 2)));
  ASSERT_GE(bytes.size(), sizeof(uint64_t) + sizeof(ValueCode));
  const ValueCode bad =
      static_cast<ValueCode>(dataset_->schema().attribute(0).size());
  std::memcpy(bytes.data() + sizeof(uint64_t), &bad, sizeof(bad));
  RewriteSpill(dir, 2, bytes);
  const Result<ShardedResult> resumed = Run(dir, true, 1);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(resumed.status().message().find("shard 2"), std::string::npos)
      << resumed.status().ToString();
}

// A work dir whose MANIFEST says version 1 holds text spills and CSV
// checkpoints; resuming it is an explicit error, never a misread.
TEST_F(ShardResumeTest, ResumeRefusesAVersion1WorkDir) {
  const std::string dir = FreshDir("v1");
  ASSERT_TRUE(Run(dir, false, 1).ok());
  std::string text =
      Unwrap(shard::ReadFileToString(shard::ManifestPath(dir)));
  const std::string v2 = "kanon-shard-manifest 2\n";
  ASSERT_EQ(text.compare(0, v2.size(), v2), 0) << text;
  text.replace(0, v2.size(), "kanon-shard-manifest 1\n");
  ASSERT_TRUE(shard::WriteFileAtomic(shard::ManifestPath(dir), text).ok());
  const Result<ShardedResult> resumed = Run(dir, true, 1);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("version 1 is not supported"),
            std::string::npos)
      << resumed.status().ToString();
}

// The journal's codes and set ids mean something only under the scheme
// that wrote them: a resume under another hierarchy (same schema, so
// every id would still be in range) is refused, never republished.
TEST_F(ShardResumeTest, ResumeRefusesAChangedScheme) {
  const std::string dir = FreshDir("changed_scheme");
  ASSERT_TRUE(Run(dir, false, 1).ok());
  Hierarchy zip = Unwrap(Hierarchy::Intervals(8, {4}));
  Hierarchy sex = Unwrap(Hierarchy::SuppressionOnly(2));
  const auto other = std::make_shared<const GeneralizationScheme>(
      Unwrap(GeneralizationScheme::Create(
          scheme_->schema(), {std::move(zip), std::move(sex)})));
  const auto resumed = shard::ShardedAnonymize(
      *dataset_, other, EntropyMeasure(), Config(1), Options(dir, true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("scheme changed"),
            std::string::npos)
      << resumed.status().ToString();
  // The unchanged scheme still adopts every shard.
  EXPECT_EQ(Unwrap(Run(dir, true, 1)).shards_resumed, kShards);
}

TEST_F(ShardResumeTest, ResumeRejectsMismatchedConfigurationOrInput) {
  const std::string dir = FreshDir("mismatch");
  ASSERT_TRUE(Run(dir, false, 1).ok());

  // Different k: the manifest fingerprint no longer matches.
  AnonymizerConfig other_k = Config(1);
  other_k.k = kK + 1;
  const auto wrong_k = shard::ShardedAnonymize(
      *dataset_, scheme_, EntropyMeasure(), other_k, Options(dir, true));
  ASSERT_FALSE(wrong_k.ok());
  EXPECT_EQ(wrong_k.status().code(), StatusCode::kInvalidArgument);

  // Attribute weights: they change every shard's table, so a resume under
  // other weights must not republish the old checkpoints.
  AnonymizerConfig weighted = Config(1);
  weighted.attr_weights.assign(dataset_->num_attributes(), 1.0);
  weighted.attr_weights[0] = 5.0;
  const auto wrong_weights = shard::ShardedAnonymize(
      *dataset_, scheme_, EntropyMeasure(), weighted, Options(dir, true));
  ASSERT_FALSE(wrong_weights.ok());
  EXPECT_EQ(wrong_weights.status().code(), StatusCode::kInvalidArgument);

  // Different input data: the input checksum no longer matches.
  const Dataset other_data = SmallRandomDataset(*scheme_, 60, 78);
  const auto wrong_input = shard::ShardedAnonymize(
      other_data, scheme_, EntropyMeasure(), Config(1), Options(dir, true));
  ASSERT_FALSE(wrong_input.ok());
  EXPECT_EQ(wrong_input.status().code(), StatusCode::kInvalidArgument);

  // A corrupt manifest is an explicit error, never silently clobbered.
  ASSERT_TRUE(
      shard::WriteFileAtomic(shard::ManifestPath(dir), "garbage\n").ok());
  EXPECT_FALSE(Run(dir, true, 1).ok());
}

TEST_F(ShardResumeTest, BareResumeAdoptsRecordedShardCount) {
  // A resume that states no shard count (`--resume=DIR` alone) adopts the
  // manifest's recorded geometry — the original count may have come from a
  // memory budget the resuming invocation does not repeat. An *explicit*
  // disagreeing count is still a configuration mismatch.
  const ShardedResult reference = Reference();
  const std::string dir = FreshDir("adopt");
  failpoint::Arm("shard.checkpoint_commit", /*after=*/1);
  ASSERT_FALSE(Run(dir, /*resume=*/false, /*threads=*/1).ok());
  failpoint::DisarmAll();

  ShardOptions bare;
  bare.work_dir = dir;
  bare.resume = true;  // num_shards left 0: adopt from the manifest.
  const ShardedResult resumed = Unwrap(shard::ShardedAnonymize(
      *dataset_, scheme_, EntropyMeasure(), Config(2), bare));
  EXPECT_EQ(resumed.num_shards, kShards);
  EXPECT_EQ(resumed.shards_resumed, 1u);
  EXPECT_TRUE(resumed.table == reference.table);

  ShardOptions wrong = bare;
  wrong.num_shards = kShards + 1;
  const auto mismatch = shard::ShardedAnonymize(
      *dataset_, scheme_, EntropyMeasure(), Config(1), wrong);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardResumeTest, ResumeIntoEmptyDirectoryStartsFresh) {
  // A resume whose previous run died before the manifest committed has
  // nothing to reuse: it silently runs fresh and still succeeds.
  const ShardedResult reference = Reference();
  const ShardedResult fresh =
      Unwrap(Run(FreshDir("empty"), /*resume=*/true, 1));
  EXPECT_EQ(fresh.shards_resumed, 0u);
  EXPECT_TRUE(fresh.table == reference.table);
}

TEST_F(ShardResumeTest, KilledPartitioningLeavesNoManifestAndRedoesCleanly) {
  // A crash while spilling (before the manifest commits) must leave a
  // directory a plain resume treats as fresh.
  const ShardedResult reference = Reference();
  const std::string dir = FreshDir("kill_spill");
  failpoint::Arm("shard.spill_commit", /*after=*/1);
  ASSERT_FALSE(Run(dir, false, 1).ok());
  failpoint::DisarmAll();
  EXPECT_FALSE(shard::FileExists(shard::ManifestPath(dir)));
  const ShardedResult resumed = Unwrap(Run(dir, true, 1));
  EXPECT_EQ(resumed.shards_resumed, 0u);
  EXPECT_TRUE(resumed.table == reference.table);
}

}  // namespace
}  // namespace kanon
