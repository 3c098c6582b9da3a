// Negative-compilation guard for the cluster-policy engine: a struct that
// fails the ClusterPolicy concept must be rejected by
// KANON_ASSERT_CLUSTER_POLICY with the documented diagnostic, not slip
// through to an opaque template error deep inside an engine.
//
// This file is NOT compiled into any binary. The policy_negcomp ctest entry
// runs the compiler on it with -fsyntax-only and asserts (via
// PASS_REGULAR_EXPRESSION) that the static_assert message below appears in
// the output. If someone weakens the concept or reworks the macro into an
// unreadable failure, this test is the tripwire.

#include "kanon/algo/policy.h"

namespace kanon {
namespace {

// Looks like a policy, but Distance returns the wrong type and kAsymmetric
// is missing entirely — the two most likely authoring mistakes.
struct BrokenPolicy {
  static constexpr const char* kName = "broken";
  int Distance(size_t, size_t, size_t, double, double, double) const {
    return 0;
  }
  // No kAsymmetric.
};

KANON_ASSERT_CLUSTER_POLICY(BrokenPolicy);

}  // namespace
}  // namespace kanon
