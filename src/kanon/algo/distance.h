#ifndef KANON_ALGO_DISTANCE_H_
#define KANON_ALGO_DISTANCE_H_

#include <cstddef>
#include <string>

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
  /// Nergiz & Clifton's asymmetric variant: d(A∪B) − d(B).
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

/// Parameters shared by the distance functions.
struct DistanceParams {
  /// The additive constant ε of eq. (11); the paper uses 0.1.
  double epsilon = 0.1;
};

/// Evaluates dist(A, B) given the ingredients. `size_union` is |A∪B| —
/// equal to size_a + size_b for disjoint clusters, but passed explicitly so
/// the modified agglomerative algorithm can evaluate dist(Ŝ, Ŝ∖{R}) on
/// overlapping arguments as the paper specifies.
///
/// This out-of-line switch is the *scalar reference implementation*: the
/// agglomerative engine runs on the inlined Distance of its ClusterPolicy
/// (algo/policy.h, dispatched once per run — never per pair), and
/// the policy conformance tests plus the dispatch-vs-policy micro-benchmark
/// pin each policy's hook to this function bit for bit. See
/// docs/policy_engine.md.
double EvalDistance(DistanceFunction f, const DistanceParams& params,
                    size_t size_a, size_t size_b, size_t size_union,
                    double d_a, double d_b, double d_union);

}  // namespace kanon

#endif  // KANON_ALGO_DISTANCE_H_
