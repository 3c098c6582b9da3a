#ifndef KANON_ALGO_POLICY_H_
#define KANON_ALGO_POLICY_H_

#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>

#include "kanon/algo/distance.h"
#include "kanon/common/check.h"

namespace kanon {

/// The compile-time cluster-policy engine (docs/policy_engine.md).
///
/// A ClusterPolicy is the merge rule of Algorithms 1 and 2 — the only place
/// where the cluster distances of Section V-A.2 are used — as inlinable
/// compile-time members, replacing the runtime `EvalDistance` switch that
/// used to sit inside the O(n²) merge loops:
///
///  - `Distance(size_a, size_b, size_union, d_a, d_b, d_union)` — the
///    cluster distance (eqs. 8–11 / Nergiz–Clifton), evaluated by the
///    agglomerative engine per candidate pair.
///  - `kAsymmetric` — whether dist(A, B) ≠ dist(B, A); the merge rule
///    evaluates both directions only when set (Nergiz–Clifton).
///  - `kName` — diagnostic label.
///
/// The agglomerative engine is templated on the policy and instantiated
/// once per built-in in agglomerative.cc, the library's one enum-to-policy
/// dispatch (DispatchDistancePolicy). The other pipelines rank raw closure
/// costs and take no policy. EvalDistance (algo/distance.h) remains as the
/// scalar reference implementation that conformance tests and benches
/// compare against.
template <typename P>
concept ClusterPolicy = requires(const P p, size_t s, double d) {
  { P::kName } -> std::convertible_to<const char*>;
  { P::kAsymmetric } -> std::convertible_to<bool>;
  { p.Distance(s, s, s, d, d, d) } -> std::same_as<double>;
};

/// One readable diagnostic instead of a template backtrace: the engine and
/// the dispatcher expand this where a policy type is consumed, so a
/// malformed policy fails on this message (tests/policy_negcomp.cc keeps it
/// honest).
#define KANON_ASSERT_CLUSTER_POLICY(P)                                        \
  static_assert(::kanon::ClusterPolicy<P>,                                    \
                "policy does not satisfy the ClusterPolicy concept: it must " \
                "provide kName, kAsymmetric and Distance(size_a, size_b, "    \
                "size_union, d_a, d_b, d_union) -> double; see "              \
                "docs/policy_engine.md")

/// Eq. (8): |A∪B|·d(A∪B) − |A|·d(A) − |B|·d(B). Favors balanced growth.
struct WeightedPolicy {
  static constexpr const char* kName = "dist1(8)";
  static constexpr bool kAsymmetric = false;
  double Distance(size_t size_a, size_t size_b, size_t size_union, double d_a,
                  double d_b, double d_union) const {
    KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
    return static_cast<double>(size_union) * d_union -
           static_cast<double>(size_a) * d_a -
           static_cast<double>(size_b) * d_b;
  }
};

/// Eq. (9): d(A∪B) − d(A) − d(B). May be negative; unbalanced growth.
struct PlainPolicy {
  static constexpr const char* kName = "dist2(9)";
  static constexpr bool kAsymmetric = false;
  double Distance([[maybe_unused]] size_t size_a, [[maybe_unused]] size_t size_b,
                  [[maybe_unused]] size_t size_union, double d_a, double d_b,
                  double d_union) const {
    KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
    return d_union - d_a - d_b;
  }
};

/// Eq. (10): (d(A∪B) − d(A) − d(B)) / log2|A∪B|. Favors growing one cluster.
struct LogWeightedPolicy {
  static constexpr const char* kName = "dist3(10)";
  static constexpr bool kAsymmetric = false;
  double Distance([[maybe_unused]] size_t size_a, [[maybe_unused]] size_t size_b,
                  size_t size_union, double d_a, double d_b,
                  double d_union) const {
    KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
    return (d_union - d_a - d_b) / std::log2(static_cast<double>(size_union));
  }
};

/// Eq. (11): d(A∪B) / (d(A) + d(B) + ε). Relative cost increase. The only
/// built-in policy with state: it carries the ε of DistanceParams.
struct RatioPolicy {
  static constexpr const char* kName = "dist4(11)";
  static constexpr bool kAsymmetric = false;
  DistanceParams params;
  double Distance([[maybe_unused]] size_t size_a, [[maybe_unused]] size_t size_b,
                  [[maybe_unused]] size_t size_union, double d_a, double d_b,
                  double d_union) const {
    KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
    // Two zero-cost closures (e.g. identical singleton records) with
    // epsilon = 0 would divide by zero and poison the merge order with
    // inf/NaN. A zero-cost union is a perfect merge (distance 0); a
    // costly union over zero-cost parts is maximally unattractive.
    const double denom = d_a + d_b + params.epsilon;
    if (denom <= 0.0) {
      return d_union <= 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    }
    return d_union / denom;
  }
};

/// Nergiz & Clifton's asymmetric variant: dist(A, B) = d(A∪B) − d(B).
struct NergizCliftonPolicy {
  static constexpr const char* kName = "distNC";
  static constexpr bool kAsymmetric = true;
  double Distance([[maybe_unused]] size_t size_a, [[maybe_unused]] size_t size_b,
                  [[maybe_unused]] size_t size_union,
                  [[maybe_unused]] double d_a, double d_b,
                  double d_union) const {
    KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
    return d_union - d_b;
  }
};

KANON_ASSERT_CLUSTER_POLICY(WeightedPolicy);
KANON_ASSERT_CLUSTER_POLICY(PlainPolicy);
KANON_ASSERT_CLUSTER_POLICY(LogWeightedPolicy);
KANON_ASSERT_CLUSTER_POLICY(RatioPolicy);
KANON_ASSERT_CLUSTER_POLICY(NergizCliftonPolicy);

/// The one runtime-to-compile-time boundary of the policy engine: translates
/// a DistanceFunction (+ params) to its policy and invokes `fn` with it.
/// AgglomerativeCluster calls this exactly once per run; no per-pair code
/// dispatches on the enum afterwards.
template <typename Fn>
auto DispatchDistancePolicy(DistanceFunction f, const DistanceParams& params,
                            Fn&& fn) {
  switch (f) {
    case DistanceFunction::kWeighted:
      return fn(WeightedPolicy{});
    case DistanceFunction::kPlain:
      return fn(PlainPolicy{});
    case DistanceFunction::kLogWeighted:
      return fn(LogWeightedPolicy{});
    case DistanceFunction::kRatio:
      return fn(RatioPolicy{params});
    case DistanceFunction::kNergizClifton:
      return fn(NergizCliftonPolicy{});
  }
  KANON_CHECK(false, "unreachable distance function");
  return fn(LogWeightedPolicy{});
}

}  // namespace kanon

#endif  // KANON_ALGO_POLICY_H_
