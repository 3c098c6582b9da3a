#ifndef KANON_ALGO_DISTANCE_H_
#define KANON_ALGO_DISTANCE_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "kanon/common/check.h"
#include "kanon/common/result.h"

namespace kanon {

/// The cluster distance functions of Section V-A.2. All are defined in
/// terms of the generalization costs d(A), d(B), d(A∪B) and the cluster
/// sizes; the paper's equation numbers are noted per enumerator.
enum class DistanceFunction {
  /// (8): |A∪B|·d(A∪B) − |A|·d(A) − |B|·d(B). Favors balanced growth.
  kWeighted,
  /// (9): d(A∪B) − d(A) − d(B). May be negative; unbalanced growth.
  kPlain,
  /// (10): (d(A∪B) − d(A) − d(B)) / log2|A∪B|. Favors growing one cluster.
  kLogWeighted,
  /// (11): d(A∪B) / (d(A) + d(B) + ε). Relative cost increase.
  kRatio,
  /// Nergiz & Clifton's asymmetric variant: d(A∪B) − d(B); the only
  /// distance where dist(A, B) ≠ dist(B, A).
  kNergizClifton,
};

/// All distance functions, in a stable order (for sweeps and benches).
inline constexpr DistanceFunction kAllDistanceFunctions[] = {
    DistanceFunction::kWeighted, DistanceFunction::kPlain,
    DistanceFunction::kLogWeighted, DistanceFunction::kRatio,
    DistanceFunction::kNergizClifton};

/// Report label, e.g. "dist1(8)".
std::string DistanceFunctionName(DistanceFunction f);

/// The run vocabulary's distance names: 1 to 4 for equations (8)-(11) and
/// nc for Nergiz-Clifton, as kanon_cli --distance, the kanond submit param
/// and .repro files spell them.
const char* DistanceShortName(DistanceFunction f);
/// Inverse of DistanceShortName; unknown names are InvalidArgument.
Result<DistanceFunction> ParseDistanceShortName(const std::string& name);

/// The additive constant ε of eq. (11), as the paper sets it.
inline constexpr double kRatioEpsilon = 0.1;

/// dist(A, B) of distance F from its ingredients: the cluster sizes and the
/// generalization costs d(A), d(B), d(A∪B). `size_union` is |A∪B| — equal
/// to size_a + size_b for disjoint clusters, but passed explicitly so the
/// modified agglomerative algorithm can evaluate dist(Ŝ, Ŝ∖{R}) on
/// overlapping arguments as the paper specifies.
///
/// The one definition of each distance. The agglomerative engine
/// (agglomerative_engine.h) is a template on F, so this inlines into its
/// sweeps and no per-pair code branches on the enum.
template <DistanceFunction F>
double ClusterDistance([[maybe_unused]] size_t size_a,
                       [[maybe_unused]] size_t size_b,
                       [[maybe_unused]] size_t size_union,
                       [[maybe_unused]] double d_a, double d_b,
                       double d_union) {
  KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
  if constexpr (F == DistanceFunction::kWeighted) {
    return static_cast<double>(size_union) * d_union -
           static_cast<double>(size_a) * d_a -
           static_cast<double>(size_b) * d_b;
  } else if constexpr (F == DistanceFunction::kPlain) {
    return d_union - d_a - d_b;
  } else if constexpr (F == DistanceFunction::kLogWeighted) {
    return (d_union - d_a - d_b) / std::log2(static_cast<double>(size_union));
  } else if constexpr (F == DistanceFunction::kRatio) {
    // A LossMeasure may price a closure below zero, so the denominator can
    // still reach 0 and would poison the merge order with inf/NaN. A
    // zero-cost union is a perfect merge (distance 0); a costly union over
    // such parts is maximally unattractive.
    const double denom = d_a + d_b + kRatioEpsilon;
    if (denom <= 0.0) {
      return d_union <= 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    }
    return d_union / denom;
  } else {
    static_assert(F == DistanceFunction::kNergizClifton);
    return d_union - d_b;
  }
}

}  // namespace kanon

#endif  // KANON_ALGO_DISTANCE_H_
