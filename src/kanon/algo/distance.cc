#include "kanon/algo/distance.h"

#include <cmath>
#include <limits>

#include "kanon/common/check.h"

namespace kanon {

namespace {

// The distance vocabulary: one row per DistanceFunction.
struct DistanceInfo {
  DistanceFunction f;
  const char* short_name;
  const char* label;
};

constexpr DistanceInfo kDistances[] = {
    {DistanceFunction::kWeighted, "1", "dist1(8)"},
    {DistanceFunction::kPlain, "2", "dist2(9)"},
    {DistanceFunction::kLogWeighted, "3", "dist3(10)"},
    {DistanceFunction::kRatio, "4", "dist4(11)"},
    {DistanceFunction::kNergizClifton, "nc", "distNC"},
};

const DistanceInfo& Info(DistanceFunction f) {
  for (const DistanceInfo& info : kDistances) {
    if (info.f == f) return info;
  }
  KANON_CHECK(false, "unknown distance function");
  return kDistances[0];
}

}  // namespace

std::string DistanceFunctionName(DistanceFunction f) { return Info(f).label; }

const char* DistanceShortName(DistanceFunction f) {
  return Info(f).short_name;
}

Result<DistanceFunction> ParseDistanceShortName(const std::string& name) {
  for (const DistanceInfo& info : kDistances) {
    if (name == info.short_name) return info.f;
  }
  return Status::InvalidArgument("unknown distance '" + name + "'");
}

double EvalDistance(DistanceFunction f, const DistanceParams& params,
                    size_t size_a, size_t size_b, size_t size_union,
                    double d_a, double d_b, double d_union) {
  KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
  switch (f) {
    case DistanceFunction::kWeighted:
      return static_cast<double>(size_union) * d_union -
             static_cast<double>(size_a) * d_a -
             static_cast<double>(size_b) * d_b;
    case DistanceFunction::kPlain:
      return d_union - d_a - d_b;
    case DistanceFunction::kLogWeighted:
      return (d_union - d_a - d_b) /
             std::log2(static_cast<double>(size_union));
    case DistanceFunction::kRatio: {
      // Two zero-cost closures (e.g. identical singleton records) with
      // epsilon = 0 would divide by zero and poison the merge heap with
      // inf/NaN. A zero-cost union is a perfect merge (distance 0); a
      // costly union over zero-cost parts is maximally unattractive.
      const double denom = d_a + d_b + params.epsilon;
      if (denom <= 0.0) {
        return d_union <= 0.0 ? 0.0
                              : std::numeric_limits<double>::infinity();
      }
      return d_union / denom;
    }
    case DistanceFunction::kNergizClifton:
      return d_union - d_b;
  }
  KANON_CHECK(false, "unreachable distance function");
  return 0.0;
}

}  // namespace kanon
