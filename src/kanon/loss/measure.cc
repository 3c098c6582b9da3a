#include "kanon/loss/measure.h"

#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/loss/suppression_measure.h"
#include "kanon/loss/tree_measure.h"

namespace kanon {

namespace {

template <typename Measure>
std::unique_ptr<LossMeasure> New() {
  return std::make_unique<Measure>();
}

// The measure vocabulary: each name is the name() of what it builds.
constexpr struct {
  const char* name;
  std::unique_ptr<LossMeasure> (*make)();
} kMeasures[] = {
    {"EM", &New<EntropyMeasure>},
    {"LM", &New<LmMeasure>},
    {"TM", &New<TreeMeasure>},
    {"SUP", &New<SuppressionMeasure>},
};

}  // namespace

Result<std::unique_ptr<LossMeasure>> MakeMeasure(const std::string& name) {
  for (const auto& entry : kMeasures) {
    if (name == entry.name) return entry.make();
  }
  return Status::InvalidArgument("unknown measure '" + name + "'");
}

}  // namespace kanon
