#ifndef KANON_TESTS_TEST_UTIL_H_
#define KANON_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "kanon/common/rng.h"
#include "kanon/data/dataset.h"
#include "kanon/datasets/art.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/precomputed_loss.h"

#if defined(__SANITIZE_THREAD__)
#define KANON_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KANON_TEST_TSAN 1
#endif
#endif

namespace kanon {
namespace testing {

/// True in thread-sanitizer builds, where multi-threaded tests run about
/// ten times slower and size their workloads down.
#ifdef KANON_TEST_TSAN
inline constexpr bool kThreadSanitizer = true;
#else
inline constexpr bool kThreadSanitizer = false;
#endif

/// Unwraps a Result in a test, failing loudly on error.
template <typename T>
T Unwrap(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  KANON_CHECK(result.ok(), result.status().ToString());
  return std::move(result).value();
}

/// A small two-attribute scheme used across the algorithm tests:
///   zip: 0..7 with nested bands {0..1},{2..3},{4..5},{6..7},{0..3},{4..7}
///   sex: {M, F}, suppression only.
inline std::shared_ptr<const GeneralizationScheme> SmallScheme() {
  AttributeDomain zip = AttributeDomain::IntegerRange("zip", 0, 7);
  AttributeDomain sex = Unwrap(AttributeDomain::Create("sex", {"M", "F"}));
  Schema schema = Unwrap(Schema::Create({zip, sex}));
  Hierarchy hz = Unwrap(Hierarchy::Intervals(8, {2, 4}));
  Hierarchy hs = Unwrap(Hierarchy::SuppressionOnly(2));
  GeneralizationScheme scheme = Unwrap(GeneralizationScheme::Create(
      schema, {std::move(hz), std::move(hs)}));
  return std::make_shared<const GeneralizationScheme>(std::move(scheme));
}

/// A random dataset over SmallScheme(): zip skewed toward low values,
/// sex 60/40.
inline Dataset SmallRandomDataset(const GeneralizationScheme& scheme,
                                  size_t n, uint64_t seed) {
  Rng rng(seed);
  AliasSampler zip({0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04});
  AliasSampler sex({0.6, 0.4});
  Dataset d(scheme.schema());
  for (size_t i = 0; i < n; ++i) {
    const Record record = {static_cast<ValueCode>(zip.Sample(&rng)),
                           static_cast<ValueCode>(sex.Sample(&rng))};
    KANON_CHECK(d.AppendRow(record).ok());
  }
  return d;
}

/// ART rows with heavy repetition: `unique` rows from MakeArtWorkload,
/// then `repeats` copies of earlier rows picked by a seeded Rng, so at
/// least repeats / (unique + repeats) of the rows repeat a tuple. Tuple-mates
/// tie at every distance, which is what the agglomerative engine's
/// distinct-tuple init and near-lists have to get right.
inline Workload DuplicateHeavyArt(size_t unique, size_t repeats,
                                  uint64_t seed) {
  Workload art = Unwrap(MakeArtWorkload(unique, seed));
  Rng rng(seed ^ 0x5bd1e995u);
  for (size_t i = 0; i < repeats; ++i) {
    const Record copy =
        art.dataset.row_view(rng.NextBounded(unique)).ToRecord();
    KANON_CHECK(art.dataset.AppendRow(copy).ok());
  }
  return art;
}

}  // namespace testing
}  // namespace kanon

#endif  // KANON_TESTS_TEST_UTIL_H_
