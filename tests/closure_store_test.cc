// ClosureStore: interning identity (same closure -> same id, same stored
// record), cost memoization with exact hit accounting, exact joins while the
// store grows, and the consistency invariants after a RunContext stop winds
// an engine down mid-run.
#include "kanon/algo/core/closure_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/anonymizer.h"
#include "kanon/common/run_context.h"
#include "kanon/loss/entropy_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

// The stored closure `id` as a record (row() is valid only until the next
// Intern, so comparisons take a copy).
GeneralizedRecord Stored(const ClosureStore& store, ClosureStore::Id id) {
  const SetId* row = store.row(id);
  return GeneralizedRecord(row,
                           row + store.loss().scheme().num_attributes());
}

class ClosureStoreTest : public ::testing::Test {
 protected:
  ClosureStoreTest()
      : scheme_(SmallScheme()),
        dataset_(SmallRandomDataset(*scheme_, 40, 777)),
        loss_(scheme_, dataset_, EntropyMeasure()) {}

  std::shared_ptr<const GeneralizationScheme> scheme_;
  Dataset dataset_;
  PrecomputedLoss loss_;
};

TEST_F(ClosureStoreTest, InterningIsIdentityPreserving) {
  ClosureStore store(loss_);
  const GeneralizedRecord a = scheme_->Identity(dataset_.row(0));
  const GeneralizedRecord b = scheme_->Identity(dataset_.row(1));

  const ClosureStore::Id ida = store.Intern(a.data());
  EXPECT_EQ(store.Intern(a.data()), ida);  // Same content, same id.
  EXPECT_TRUE(Stored(store, ida) == a);    // Stored record is the closure.

  const ClosureStore::Id idb = store.Intern(b.data());
  if (a == b) {
    EXPECT_EQ(idb, ida);
  } else {
    EXPECT_NE(idb, ida);
  }
  // Ids are dense, in first-sight order.
  EXPECT_LT(ida, store.size());
  EXPECT_LT(idb, store.size());
}

TEST_F(ClosureStoreTest, CostIsMemoizedWithExactHitAccounting) {
  ClosureStore store(loss_);
  const GeneralizedRecord a = scheme_->Identity(dataset_.row(0));

  const ClosureStore::Id id = store.Intern(a.data());
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_DOUBLE_EQ(store.cost(id), loss_.RecordCost(a.data()));

  // Re-interning the same closure is a pure cache hit: no new storage, no
  // re-pricing, exactly one hit per repeated call.
  for (size_t repeat = 1; repeat <= 5; ++repeat) {
    EXPECT_EQ(store.Intern(a.data()), id);
    EXPECT_EQ(store.hits(), repeat);
    EXPECT_EQ(store.misses(), 1u);
  }

  // hits + misses always equals the number of Intern calls.
  EXPECT_EQ(store.hits() + store.misses(), 6u);
  EXPECT_EQ(store.size(), store.misses());
}

TEST_F(ClosureStoreTest, InternJoinMatchesSchemeJoin) {
  ClosureStore store(loss_);
  const ClosureStore::Id a =
      store.Intern(scheme_->Identity(dataset_.row(0)).data());
  const ClosureStore::Id b =
      store.Intern(scheme_->Identity(dataset_.row(1)).data());
  const ClosureStore::Id joined = store.InternJoin(a, b);
  const GeneralizedRecord expected =
      scheme_->JoinRecords(Stored(store, a), Stored(store, b));
  EXPECT_TRUE(Stored(store, joined) == expected);
  EXPECT_DOUBLE_EQ(store.cost(joined), loss_.RecordCost(expected.data()));
}

// The stored rows live in one array that moves whenever it grows, so a row
// read before an Intern may dangle after it. Thousands of distinct closures
// make the store reallocate many times; every InternJoin in between, those
// that trigger a reallocation included, must still join the operands it was
// given (the sanitizer build turns a stale read into a failure).
TEST(ClosureStoreGrowthTest, InternJoinStaysExactWhileTheStoreGrows) {
  // Three attributes of 16 values with interval hierarchies: 31 subsets
  // each, so 4096 distinct identity closures and many more joins.
  std::vector<AttributeDomain> domains;
  std::vector<Hierarchy> hierarchies;
  for (const char* name : {"a", "b", "c"}) {
    domains.push_back(AttributeDomain::IntegerRange(name, 0, 15));
    hierarchies.push_back(Unwrap(Hierarchy::Intervals(16, {2, 4, 8})));
  }
  const auto scheme = std::make_shared<const GeneralizationScheme>(
      Unwrap(GeneralizationScheme::Create(Unwrap(Schema::Create(domains)),
                                          std::move(hierarchies))));
  Rng rng(20080409);
  Dataset d(scheme->schema());
  for (size_t i = 0; i < 2000; ++i) {
    const Record record = {static_cast<ValueCode>(rng.NextBounded(16)),
                           static_cast<ValueCode>(rng.NextBounded(16)),
                           static_cast<ValueCode>(rng.NextBounded(16))};
    ASSERT_TRUE(d.AppendRow(record).ok());
  }
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());

  ClosureStore store(loss);
  ClosureStore::Id previous =
      store.Intern(scheme->Identity(d.row(0)).data());
  const SetId* rows = store.row(0);
  size_t moves = 0;
  for (size_t i = 1; i < d.num_rows(); ++i) {
    const ClosureStore::Id single =
        store.Intern(scheme->Identity(d.row(i)).data());
    const GeneralizedRecord expected =
        scheme->JoinRecords(Stored(store, single), Stored(store, previous));
    const ClosureStore::Id joined = store.InternJoin(single, previous);
    ASSERT_EQ(Stored(store, joined), expected) << "row " << i;
    EXPECT_DOUBLE_EQ(store.cost(joined), loss.RecordCost(expected.data()));
    if (store.row(0) != rows) {
      ++moves;
      rows = store.row(0);
    }
    previous = i % 3 == 0 ? joined : single;
  }
  EXPECT_GE(moves, 5u);
  EXPECT_EQ(store.hits() + store.misses(), 2 * d.num_rows() - 1);
}

TEST_F(ClosureStoreTest, InternTableCountsDuplicateRowsAsHits) {
  GeneralizedTable table(scheme_);
  const GeneralizedRecord star = scheme_->Suppressed();
  for (int i = 0; i < 4; ++i) table.AppendRecord(star);
  table.AppendRecord(scheme_->Identity(dataset_.row(0)));

  ClosureStore store(loss_);
  const std::vector<ClosureStore::Id> ids = store.InternTable(table);
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[0], ids[3]);
  // 5 intern calls over (at most) 2 distinct rows: at least 3 hits.
  EXPECT_GE(store.hits(), 3u);
  EXPECT_EQ(store.hits() + store.misses(), 5u);
}

TEST_F(ClosureStoreTest, ExportCountersAccumulates) {
  ClosureStore store(loss_);
  const GeneralizedRecord a = scheme_->Identity(dataset_.row(0));
  store.Intern(a.data());
  store.Intern(a.data());

  EngineCounters counters;
  counters.closure_hits = 10;  // Pre-existing telemetry must be kept.
  store.ExportCounters(&counters);
  EXPECT_EQ(counters.closure_hits, 11u);
  EXPECT_EQ(counters.closure_misses, 1u);
  store.ExportCounters(nullptr);  // Null sink is a no-op, not a crash.
}

// A run wound down by a RunContext stop mid-clustering must still leave
// consistent closure accounting: hits + misses equals the intern calls the
// engine actually made (no torn entries), and the degraded table's rows are
// all interned closures.
TEST_F(ClosureStoreTest, CountersStayConsistentUnderRunContextStop) {
  const Dataset d = SmallRandomDataset(*scheme_, 120, 20250807);
  const PrecomputedLoss loss(scheme_, d, EntropyMeasure());

  for (const size_t budget : {1u, 3u, 10u}) {
    RunContext ctx;
    ctx.set_step_budget(budget);
    EngineCounters counters;
    AgglomerativeOptions options;
    options.distance = DistanceFunction::kLogWeighted;
    options.run_context = &ctx;
    options.counters = &counters;
    const GeneralizedTable table =
        Unwrap(AgglomerativeKAnonymize(d, loss, /*k=*/5, options));
    EXPECT_TRUE(ctx.stopped());
    EXPECT_EQ(table.num_rows(), d.num_rows());
    // The store was consistent at wind-down: every priced closure is a
    // distinct miss and the hit/miss split covers every intern call.
    EXPECT_GT(counters.closure_misses, 0u) << "budget " << budget;
    // Replaying the degraded table through a fresh store must find every
    // row priced identically — no closure escaped the store.
    ClosureStore replay(loss);
    for (ClosureStore::Id id : replay.InternTable(table)) {
      EXPECT_DOUBLE_EQ(replay.cost(id),
                       loss.RecordCost(replay.row(id)));
    }
  }
}

// The shared-store acceptance criterion: a full Anonymize() run on every
// pipeline reports interned closures, and the agglomerative run reports
// actual cache hits.
TEST_F(ClosureStoreTest, AnonymizeSurfacesClosureCounters) {
  const Dataset d = SmallRandomDataset(*scheme_, 60, 4242);
  const PrecomputedLoss loss(scheme_, d, EntropyMeasure());
  constexpr AnonymizationMethod kAll[] = {
      AnonymizationMethod::kAgglomerative,
      AnonymizationMethod::kModifiedAgglomerative,
      AnonymizationMethod::kForest,
      AnonymizationMethod::kKKNearestNeighbors,
      AnonymizationMethod::kKKGreedyExpansion,
      AnonymizationMethod::kGlobal,
      AnonymizationMethod::kFullDomain,
  };
  for (AnonymizationMethod method : kAll) {
    AnonymizerConfig config;
    config.k = 5;
    config.method = method;
    const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
    if (method == AnonymizationMethod::kForest) continue;  // No closures yet.
    EXPECT_GT(result.counters.closure_misses, 0u)
        << AnonymizationMethodName(method);
    EXPECT_GT(result.counters.closure_hits, 0u)
        << AnonymizationMethodName(method);
    EXPECT_GT(result.counters.closure_hit_rate(), 0.0)
        << AnonymizationMethodName(method);
  }
}

}  // namespace
}  // namespace kanon
