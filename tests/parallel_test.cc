#include "kanon/common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "kanon/common/run_context.h"
#include "test_util.h"

namespace kanon {
namespace {

TEST(ParallelGeometryTest, ChunksPartitionTheRange) {
  for (size_t grain : {1u, 3u, 512u}) {
    for (size_t n : {0u, 1u, 2u, 7u, 255u, 256u, 257u, 1000u, 100000u}) {
      const size_t chunks = ParallelChunkCount(n, grain);
      size_t expected_begin = 0;
      size_t total = 0;
      for (size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ParallelChunkRange(n, c, grain);
        EXPECT_EQ(begin, expected_begin)
            << "n=" << n << " grain=" << grain << " chunk=" << c;
        EXPECT_LE(begin, end);
        total += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " grain=" << grain;
      EXPECT_EQ(total, n);
    }
  }
}

TEST(ParallelGeometryTest, ChunkSizesAreBalancedAndFollowTheGrain) {
  // No chunk may exceed another by more than one item. Below the 256-chunk
  // cap no chunk holds more than `grain` items, and the chunks of a
  // multi-chunk sweep hold more than grain / 2.
  for (size_t grain : {1u, 4u, 100u, 512u}) {
    for (size_t n : {3u, 100u, 257u, 1000u, 5000u, 200000u}) {
      const size_t chunks = ParallelChunkCount(n, grain);
      size_t smallest = n;
      size_t largest = 0;
      for (size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ParallelChunkRange(n, c, grain);
        smallest = std::min(smallest, end - begin);
        largest = std::max(largest, end - begin);
      }
      EXPECT_LE(largest - smallest, 1u) << "n=" << n << " grain=" << grain;
      if (chunks < 256) {
        EXPECT_LE(largest, grain) << "n=" << n << " grain=" << grain;
      }
      if (chunks > 1) {
        EXPECT_GT(2 * smallest, grain) << "n=" << n << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelGeometryTest, ChunkCountDependsOnlyOnItemsAndGrain) {
  // The contract hinges on chunking being a pure function of (n, grain):
  // min(256, ceil(n / grain)), grain 0 counting as 1. There is deliberately
  // no API taking a thread count.
  struct Case {
    size_t n, grain, chunks;
  };
  for (const Case& c : {Case{0, 1, 0}, Case{1, 1, 1}, Case{100, 1, 100},
                        Case{1000, 1, 256}, Case{1000, 0, 256},
                        Case{512, 512, 1}, Case{513, 512, 2},
                        Case{6000, 512, 12}, Case{8000, 512, 16},
                        Case{1 << 20, 512, 256}, Case{100, 1000, 1}}) {
    EXPECT_EQ(ParallelChunkCount(c.n, c.grain), c.chunks)
        << "n=" << c.n << " grain=" << c.grain;
  }
  EXPECT_EQ(ParallelChunkCount(1000), ParallelChunkCount(1000, 1));
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(n, threads, nullptr, "test", [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, PreExpiredDeadlineRunsNothing) {
  RunContext ctx;
  ctx.ArmDeadline(0.0);
  std::atomic<int> ran{0};
  const SweepStatus s = ParallelFor(
      100, 4, &ctx, "test", [&](size_t) { ran.fetch_add(1); });
  EXPECT_FALSE(s.completed);
  EXPECT_EQ(ran.load(), 0);
  // The stop is registered sticky on the context.
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kDeadline);
}

TEST(ParallelForTest, CancellationMidSweepIsObserved) {
  // Cancel from inside the sweep: workers must notice between chunks and
  // skip the remainder, a genuine partial sweep.
  auto token = std::make_shared<CancellationToken>();
  RunContext ctx;
  ctx.set_cancel_token(token);
  std::atomic<int> ran{0};
  const size_t n = 100000;
  const SweepStatus s = ParallelFor(n, 4, &ctx, "test", [&](size_t) {
    if (ran.fetch_add(1) == 50) token->Cancel();
  });
  EXPECT_FALSE(s.completed);
  EXPECT_LT(static_cast<size_t>(ran.load()), n);
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kCancelled);
}

TEST(ParallelForTest, CompletedSweepChargesExactlyOneStep) {
  RunContext ctx;
  for (int threads : {1, 4}) {
    const size_t before = ctx.stats().iterations_completed;
    ParallelFor(1000, threads, &ctx, "test", [](size_t) {});
    EXPECT_EQ(ctx.stats().iterations_completed, before + 1)
        << "threads=" << threads;
  }
}

TEST(ParallelForTest, StepBudgetAppliesFromTheNextSweep) {
  // Budget 1: sweep 1 completes (step 1 stays within budget), sweep 2
  // completes but its closing checkpoint trips the budget (step 2 > 1), so
  // sweep 3 runs nothing. A budget never cuts a sweep that already ran.
  RunContext ctx;
  ctx.set_step_budget(1);
  std::atomic<int> ran{0};
  EXPECT_TRUE(ParallelFor(10, 4, &ctx, "test", [&](size_t) {
                ran.fetch_add(1);
              }).completed);
  EXPECT_TRUE(ParallelFor(10, 4, &ctx, "test", [&](size_t) {
                ran.fetch_add(1);
              }).completed);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_FALSE(ParallelFor(10, 4, &ctx, "test", [&](size_t) {
                 ran.fetch_add(1);
               }).completed);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kStepBudget);
}

TEST(ParallelForTest, OneChunkRunsInline) {
  // A sweep whose grain leaves one chunk never reaches the pool: every item
  // runs on the calling thread, whatever the thread budget.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> values(100, 0);
  std::atomic<int> elsewhere{0};
  ParallelFor(
      100, 4, nullptr, "test",
      [&](size_t i) {
        values[i] = static_cast<int>(i);
        if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
      },
      /*grain=*/100);
  EXPECT_EQ(elsewhere.load(), 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(values[i], i);
}

TEST(ParallelForTest, NestedSweepsRunInlineWithoutDeadlock) {
  // Two nested sweeps back to back: the first must not clear the in-sweep
  // flag on exit, or the second would re-enter the pool from inside the
  // outer sweep and self-deadlock (regression: DrainChunks used to reset
  // the flag instead of restoring it).
  std::atomic<int> inner_total{0};
  ParallelFor(8, 4, nullptr, "outer", [&](size_t) {
    ParallelFor(8, 4, nullptr, "inner1",
                [&](size_t) { inner_total.fetch_add(1); });
    ParallelFor(8, 4, nullptr, "inner2",
                [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 128);
}

// Thread-sanitizer builds run the stress below at a tenth of its size.
constexpr size_t kStressSweeps = testing::kThreadSanitizer ? 10000 : 100000;

TEST(ParallelForTest, TinyBackToBackAndNestedSweepsStress) {
  // Many short sweeps in a row, the pattern of the agglomerative engine's
  // repair passes: workers pick each one up while still spinning from the
  // last, park during the occasional pause, and are woken again; every few
  // sweeps nest a sweep inside a chunk. Thread counts alternate 1/2/4 so
  // workers beyond a sweep's budget must sit it out.
  const int thread_counts[] = {1, 2, 4};
  uint64_t expected = 0;
  std::atomic<uint64_t> total{0};
  for (size_t s = 0; s < kStressSweeps; ++s) {
    const int threads = thread_counts[s % 3];
    const size_t n = 2 + s % 13;
    ParallelChunks(n, threads, nullptr, "stress",
                   [&](size_t /*chunk*/, size_t begin, size_t end) {
                     uint64_t local = 0;
                     for (size_t i = begin; i < end; ++i) local += i + 1;
                     if (s % 97 == 0) {
                       ParallelFor(3, 4, nullptr, "nested",
                                   [&](size_t) { total.fetch_add(1); });
                     }
                     total.fetch_add(local);
                   });
    expected += n * (n + 1) / 2;
    if (s % 97 == 0) expected += 3 * n;
    if (s % 20000 == 19999) {
      // Long enough for every spinning worker to park.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelForTest, ConcurrentTopLevelSweepsSerializeOnThePool) {
  // Two threads issuing sweeps at once (kanond runs jobs side by side):
  // they take turns on the one pool and each sees all of its own items.
  std::vector<uint64_t> sums(2, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (size_t s = 0; s < kStressSweeps / 20; ++s) {
        std::atomic<uint64_t> sum{0};
        ParallelFor(64, 2 + static_cast<int>(c), nullptr, "concurrent",
                    [&](size_t i) { sum.fetch_add(i); });
        sums[c] += sum.load();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (uint64_t sum : sums) EXPECT_EQ(sum, (kStressSweeps / 20) * 2016);
}

double ArgminProbe(size_t i) {
  // Minimum 0.25 attained at i = 30, 60, 90, ... — plenty of ties.
  return i % 30 == 0 && i > 0 ? 0.25 : 1.0 + static_cast<double>(i % 7);
}

TEST(ParallelArgminTest, SmallestIndexWinsTiesAtEveryThreadCount) {
  for (int threads : {1, 2, 4, 8}) {
    const ArgminResult r =
        ParallelArgmin(100000, threads, nullptr, "test", ArgminProbe);
    EXPECT_TRUE(r.valid);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.index, 30u) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.value, 0.25);
  }
}

TEST(ParallelArgminTest, AllInfiniteSweepIsValidWithInfiniteValue) {
  const ArgminResult r =
      ParallelArgmin(100, 4, nullptr, "test", [](size_t) {
        return std::numeric_limits<double>::infinity();
      });
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.value, std::numeric_limits<double>::infinity());
}

TEST(ParallelArgminTest, EmptySweepIsInvalid) {
  const ArgminResult r =
      ParallelArgmin(0, 4, nullptr, "test", [](size_t) { return 0.0; });
  EXPECT_FALSE(r.valid);
}

TEST(ResolveNumThreadsTest, NonPositiveMeansHardware) {
  EXPECT_EQ(ResolveNumThreads(0), DefaultNumThreads());
  EXPECT_EQ(ResolveNumThreads(-3), DefaultNumThreads());
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(DefaultNumThreads(), 1);
}

}  // namespace
}  // namespace kanon
