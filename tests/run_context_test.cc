// Execution-control tests: RunContext mechanics (deadline, cancellation,
// step budget, progress observer) and the promise that every pipeline,
// stopped at ANY iteration, still emits a table satisfying its anonymity
// notion — just lossier. Also covers the cluster-closure failpoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/run_context.h"
#include "kanon/datasets/art.h"
#include "kanon/loss/entropy_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

TEST(RunContextTest, DefaultContextNeverStops) {
  RunContext ctx;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(ctx.CheckPoint("test/loop"));
  }
  EXPECT_FALSE(ctx.stopped());
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kNone);
  EXPECT_EQ(ctx.stats().iterations_completed, 10000u);
}

TEST(RunContextTest, StepBudgetStopsAndIsSticky) {
  RunContext ctx;
  ctx.set_step_budget(5);
  int allowed = 0;
  while (!ctx.CheckPoint("test/loop")) ++allowed;
  EXPECT_EQ(allowed, 5);
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kStepBudget);
  // Sticky: every later call keeps returning true.
  EXPECT_TRUE(ctx.CheckPoint("test/loop"));
  EXPECT_TRUE(ctx.CheckPoint("test/other-stage"));
}

TEST(RunContextTest, ExpiredDeadlineStopsOnFirstCheckpoint) {
  RunContext ctx;
  ctx.ArmDeadline(0.0);  // Expires immediately.
  EXPECT_TRUE(ctx.CheckPoint("test/loop"));
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kDeadline);
}

TEST(RunContextTest, CancellationTokenStopsNextCheckpoint) {
  RunContext ctx;
  auto token = std::make_shared<CancellationToken>();
  ctx.set_cancel_token(token);
  EXPECT_FALSE(ctx.CheckPoint("test/loop"));
  token->Cancel();
  EXPECT_TRUE(ctx.CheckPoint("test/loop"));
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kCancelled);
}

TEST(RunContextTest, ProgressObserverFiresAtInterval) {
  RunContext ctx;
  std::vector<size_t> fired_at;
  ctx.set_progress_observer(
      [&fired_at](const RunProgress& p) { fired_at.push_back(p.steps); },
      /*interval_steps=*/10);
  for (int i = 0; i < 25; ++i) ctx.CheckPoint("test/loop");
  ASSERT_EQ(fired_at.size(), 3u);  // Steps 0, 10, 20.
  EXPECT_EQ(fired_at[0], 0u);
  EXPECT_EQ(fired_at[2], 20u);
}

TEST(RunContextTest, NoteDegradedRecordsFirstStage) {
  RunContext ctx;
  ctx.NoteDegraded("first/stage");
  ctx.NoteDegraded("second/stage");
  ctx.AddRecordsSuppressed(3);
  ctx.AddRecordsSuppressed(4);
  EXPECT_TRUE(ctx.stats().degraded);
  EXPECT_EQ(ctx.stats().degraded_stage, "first/stage");
  EXPECT_EQ(ctx.stats().records_suppressed, 7u);
}

TEST(RunContextTest, ForkSplitsRemainingStepBudget) {
  RunContext parent;
  parent.set_step_budget(100);
  // Spend 20 steps on the parent first; the child gets a fraction of the
  // REMAINING 80, not of the original 100.
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(parent.CheckPoint("test/loop"));
  RunContext child = parent.Fork(0.5);
  size_t child_steps = 0;
  while (!child.CheckPoint("test/child")) ++child_steps;
  EXPECT_EQ(child_steps, 40u);
  EXPECT_EQ(child.stats().stop_reason, StopReason::kStepBudget);
  // The parent has not been charged yet: that is the driver's job. Note the
  // child's iteration count includes the stopping checkpoint itself.
  EXPECT_EQ(parent.RemainingSteps(), 80u);
  const size_t spent = child.stats().iterations_completed;
  parent.ChargeSteps(spent);
  EXPECT_EQ(parent.RemainingSteps(), 80u - spent);
}

TEST(RunContextTest, ForkOfExhaustedParentStopsImmediately) {
  RunContext parent;
  parent.set_step_budget(3);
  while (!parent.CheckPoint("test/loop")) {
  }
  RunContext child = parent.Fork(0.5);
  EXPECT_TRUE(child.CheckPoint("test/child"));
}

TEST(RunContextTest, ForkChildNeverExceedsParentRemaining) {
  // Even with fraction clamped to 1.0, the child budget is bounded by what
  // the parent has left.
  RunContext parent;
  parent.set_step_budget(10);
  for (int i = 0; i < 4; ++i) parent.CheckPoint("test/loop");
  RunContext child = parent.Fork(5.0);  // Clamped to 1.0.
  size_t child_steps = 0;
  while (!child.CheckPoint("test/child")) ++child_steps;
  EXPECT_LE(child_steps, parent.RemainingSteps());
}

TEST(RunContextTest, ForkUnboundedParentYieldsUnboundedChild) {
  RunContext parent;
  RunContext child = parent.Fork(0.25);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(child.CheckPoint("test/child"));
  }
  EXPECT_EQ(child.RemainingSteps(), SIZE_MAX);
}

TEST(RunContextTest, CancellingChildLeavesSiblingsRunning) {
  RunContext parent;
  RunContext a = parent.Fork(0.5);
  RunContext b = parent.Fork(0.5);
  ASSERT_NE(a.cancel_token(), nullptr);
  a.cancel_token()->Cancel();
  EXPECT_TRUE(a.CheckPoint("test/a"));
  EXPECT_EQ(a.stats().stop_reason, StopReason::kCancelled);
  // Sibling and parent are untouched.
  EXPECT_FALSE(b.CheckPoint("test/b"));
  EXPECT_FALSE(parent.CheckPoint("test/parent"));
}

TEST(RunContextTest, CancellingParentStopsEveryChild) {
  RunContext parent;
  auto root = std::make_shared<CancellationToken>();
  parent.set_cancel_token(root);
  RunContext a = parent.Fork(0.5);
  RunContext b = parent.Fork(0.5);
  EXPECT_FALSE(a.CheckPoint("test/a"));
  EXPECT_FALSE(b.CheckPoint("test/b"));
  root->Cancel();
  EXPECT_TRUE(a.CheckPoint("test/a"));
  EXPECT_TRUE(b.CheckPoint("test/b"));
  EXPECT_TRUE(parent.CheckPoint("test/parent"));
  EXPECT_EQ(a.stats().stop_reason, StopReason::kCancelled);
  EXPECT_EQ(b.stats().stop_reason, StopReason::kCancelled);
}

TEST(RunContextTest, ChargeStepsExhaustsBudgetAtBoundary) {
  RunContext ctx;
  ctx.set_step_budget(10);
  ctx.ChargeSteps(10);
  // Exactly consumed, not overdrawn: the charge itself records the stop.
  EXPECT_EQ(ctx.RemainingSteps(), 0u);
  EXPECT_TRUE(ctx.CheckPoint("test/loop"));
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kStepBudget);
}

struct MethodCase {
  AnonymizationMethod method;
  AnonymityNotion notion;
};

const MethodCase kAllMethods[] = {
    {AnonymizationMethod::kAgglomerative, AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kModifiedAgglomerative,
     AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kForest, AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kKKNearestNeighbors, AnonymityNotion::kKK},
    {AnonymizationMethod::kKKGreedyExpansion, AnonymityNotion::kKK},
    {AnonymizationMethod::kGlobal, AnonymityNotion::kGlobalOneK},
    {AnonymizationMethod::kFullDomain, AnonymityNotion::kKAnonymity},
};

// The central promise of the execution-control layer: cut any pipeline off
// after ANY number of iterations and the fallback still satisfies the
// promised notion. Sweeping small budgets exercises stops in every stage
// (init, merge/growth, repair, upgrade).
TEST(RunContextTest, EveryMethodDegradesToValidOutputAtAnyCutoff) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 40, 7);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());

  const size_t budgets[] = {1, 2, 3, 5, 9, 17, 33, 65, 129};
  for (const MethodCase& c : kAllMethods) {
    for (const size_t budget : budgets) {
      RunContext ctx;
      ctx.set_step_budget(budget);
      AnonymizerConfig config;
      config.k = k;
      config.method = c.method;
      config.run_context = &ctx;
      const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
      EXPECT_TRUE(Unwrap(SatisfiesNotion(c.notion, d, result.table, k)))
          << AnonymizationMethodName(c.method) << " with step budget "
          << budget << " violated " << AnonymityNotionName(c.notion);
      if (result.degraded) {
        EXPECT_EQ(result.stop_reason, StopReason::kStepBudget)
            << AnonymizationMethodName(c.method);
        EXPECT_FALSE(ctx.stats().degraded_stage.empty());
      }
    }
  }
}

// An already-expired deadline stops the run at the very first checkpoint;
// the pure-fallback output must still verify.
TEST(RunContextTest, EveryMethodSurvivesImmediateDeadline) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 30, 11);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());

  for (const MethodCase& c : kAllMethods) {
    RunContext ctx;
    ctx.ArmDeadline(0.0);
    AnonymizerConfig config;
    config.k = k;
    config.method = c.method;
    config.run_context = &ctx;
    const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
    EXPECT_TRUE(result.degraded) << AnonymizationMethodName(c.method);
    EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
    EXPECT_TRUE(Unwrap(SatisfiesNotion(c.notion, d, result.table, k)))
        << AnonymizationMethodName(c.method) << " after immediate deadline";
  }
}

// A pre-cancelled token models SIGINT arriving before/during the run.
TEST(RunContextTest, EveryMethodSurvivesPreCancelledToken) {
  auto scheme = SmallScheme();
  const size_t k = 2;
  const Dataset d = SmallRandomDataset(*scheme, 20, 13);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());

  for (const MethodCase& c : kAllMethods) {
    RunContext ctx;
    auto token = std::make_shared<CancellationToken>();
    token->Cancel();
    ctx.set_cancel_token(token);
    AnonymizerConfig config;
    config.k = k;
    config.method = c.method;
    config.run_context = &ctx;
    const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
    EXPECT_TRUE(result.degraded) << AnonymizationMethodName(c.method);
    EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
    EXPECT_TRUE(Unwrap(SatisfiesNotion(c.notion, d, result.table, k)))
        << AnonymizationMethodName(c.method) << " after cancellation";
  }
}

// Unbounded runs through the Anonymize() entry point must report clean
// stats: not degraded, no suppressed records.
TEST(RunContextTest, UnboundedRunReportsCleanStats) {
  auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 25, 17);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());

  for (const MethodCase& c : kAllMethods) {
    RunContext ctx;
    AnonymizerConfig config;
    config.k = 3;
    config.method = c.method;
    config.run_context = &ctx;
    const AnonymizationResult result = Unwrap(Anonymize(d, loss, config));
    EXPECT_FALSE(result.degraded) << AnonymizationMethodName(c.method);
    EXPECT_EQ(result.stop_reason, StopReason::kNone);
    EXPECT_EQ(result.records_suppressed, 0u);
    EXPECT_GT(result.iterations_completed, 0u)
        << AnonymizationMethodName(c.method)
        << " never called CheckPoint()";
  }
}

class ClosureFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// Arming a closure failpoint must surface as a Status error from
// Anonymize() — never a crash or a silently wrong table.
TEST_F(ClosureFailpointTest, InjectedClosureFailuresPropagateAsStatus) {
  auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 20, 19);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());

  struct FailCase {
    AnonymizationMethod method;
    const char* failpoint;
  };
  const FailCase cases[] = {
      {AnonymizationMethod::kAgglomerative, "agglomerative.closure"},
      {AnonymizationMethod::kModifiedAgglomerative, "agglomerative.closure"},
      {AnonymizationMethod::kForest, "forest.closure"},
      {AnonymizationMethod::kKKNearestNeighbors, "kk.closure"},
      {AnonymizationMethod::kKKGreedyExpansion, "kk.closure"},
      {AnonymizationMethod::kKKNearestNeighbors, "kk.upgrade"},
      {AnonymizationMethod::kGlobal, "global.closure"},
      {AnonymizationMethod::kFullDomain, "full_domain.step"},
  };
  for (const FailCase& c : cases) {
    failpoint::Arm(c.failpoint);
    AnonymizerConfig config;
    config.k = 3;
    config.method = c.method;
    const Result<AnonymizationResult> result = Anonymize(d, loss, config);
    EXPECT_FALSE(result.ok())
        << AnonymizationMethodName(c.method) << " ignored armed failpoint "
        << c.failpoint;
    if (!result.ok()) {
      EXPECT_NE(result.status().message().find(c.failpoint),
                std::string::npos)
          << result.status().ToString();
    }
    failpoint::DisarmAll();
  }
}

// The skip-count arms the N-th hit, injecting mid-run failures
// deterministically.
TEST_F(ClosureFailpointTest, SkipCountDelaysInjection) {
  auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 20, 23);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());

  AnonymizerConfig config;
  config.k = 3;
  config.method = AnonymizationMethod::kAgglomerative;

  failpoint::Arm("agglomerative.closure", /*after=*/5);
  EXPECT_FALSE(Anonymize(d, loss, config).ok());
  failpoint::DisarmAll();
  // Skip past every hit and the run succeeds.
  failpoint::Arm("agglomerative.closure", /*after=*/1000000);
  EXPECT_TRUE(Anonymize(d, loss, config).ok());
}

// Algorithm 4 advances level by level, one step per level. A step budget
// that stops it between levels must still give a (k,1)-anonymous table:
// every record whose closure was final by then publishes exactly the
// closure of an unbounded run, and every other record is fully suppressed
// and counted. The cut is between sweeps, so the table is the same at every
// thread count.
TEST(RunContextTest, GreedyExpansionStoppedBetweenLevelsKeepsFinishedRows) {
  const Workload w = Unwrap(MakeArtWorkload(120, 19));
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  const size_t k = 10;
  const GeneralizedRecord star = w.scheme->Suppressed();
  const GeneralizedTable full =
      Unwrap(K1GreedyExpansion(w.dataset, loss, k));
  bool saw_mixed = false;
  for (size_t budget = 1;; ++budget) {
    ASSERT_LT(budget, 64u) << "the expansion never finished";
    std::vector<GeneralizedTable> tables;
    RunStats last;
    for (int threads : {1, 4}) {
      RunContext ctx;
      ctx.set_step_budget(budget);
      tables.push_back(
          Unwrap(K1GreedyExpansion(w.dataset, loss, k, &ctx, threads)));
      last = ctx.stats();
    }
    const GeneralizedTable& table = tables[0];
    EXPECT_TRUE(tables[1] == table) << "budget " << budget;
    EXPECT_TRUE(Unwrap(IsK1Anonymous(w.dataset, table, k)))
        << "budget " << budget;
    size_t finished = 0;
    size_t suppressed = 0;
    for (size_t i = 0; i < table.num_rows(); ++i) {
      if (table.record(i) == full.record(i)) {
        ++finished;
      } else {
        EXPECT_EQ(table.record(i), star) << "budget " << budget << " row " << i;
        ++suppressed;
      }
    }
    EXPECT_EQ(last.records_suppressed, suppressed);
    if (!last.degraded) {
      EXPECT_EQ(suppressed, 0u);
      break;
    }
    EXPECT_EQ(last.degraded_stage, "kk/k1-greedy");
    if (finished > 0 && suppressed > 0) saw_mixed = true;
  }
  EXPECT_TRUE(saw_mixed) << "no budget stopped the expansion between levels";
}

// Regression for the degraded-accounting bug: the wholesale (1,k) fallback
// used to mark the run degraded (and only then notice that the table already
// carried k fully suppressed rows), reporting degraded = true with zero
// records actually suppressed. The no-op path must leave the stats clean.
TEST(RunContextTest, SuppressionFallbackAccountingMatchesWorkDone) {
  auto scheme = SmallScheme();
  const size_t k = 3;
  const Dataset d = SmallRandomDataset(*scheme, 12, 29);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  const GeneralizedRecord star = scheme->Suppressed();

  // (a) The table already carries k fully suppressed rows: the fallback is a
  // no-op, so the run is NOT degraded and suppresses nothing.
  {
    GeneralizedTable table = GeneralizedTable::Identity(scheme, d);
    for (size_t t = 0; t < k; ++t) table.SetRecord(t, star);
    RunContext ctx;
    ctx.ArmDeadline(0.0);  // Stop before any repair work happens.
    const GeneralizedTable out =
        Unwrap(Make1KAnonymous(d, loss, k, table, &ctx));
    EXPECT_FALSE(ctx.stats().degraded);
    EXPECT_EQ(ctx.stats().records_suppressed, 0u);
    EXPECT_TRUE(out == table);  // Untouched.
  }

  // (b) No suppressed rows yet: the fallback genuinely degrades, and the
  // accounting matches the k rows it suppressed.
  {
    GeneralizedTable table = GeneralizedTable::Identity(scheme, d);
    RunContext ctx;
    ctx.ArmDeadline(0.0);
    const GeneralizedTable out =
        Unwrap(Make1KAnonymous(d, loss, k, table, &ctx));
    EXPECT_TRUE(ctx.stats().degraded);
    EXPECT_EQ(ctx.stats().degraded_stage, "kk/repair");
    EXPECT_EQ(ctx.stats().records_suppressed, k);
    size_t suppressed = 0;
    for (size_t t = 0; t < out.num_rows(); ++t) {
      if (out.record(t) == star) ++suppressed;
    }
    EXPECT_EQ(suppressed, k);
  }
}

}  // namespace
}  // namespace kanon
