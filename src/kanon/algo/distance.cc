#include "kanon/algo/distance.h"

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

}  // namespace kanon
