#ifndef KANON_LOSS_MEASURE_H_
#define KANON_LOSS_MEASURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/generalization/hierarchy.h"

namespace kanon {

/// An information-loss measure Π of the form (Section V-A.2)
///
///   Π(D, g(D)) = (1/n) Σ_i c(R̄_i),   c(R̄) = (1/r) Σ_j cost_j(R̄(j)),
///
/// defined by its per-entry cost: the price of publishing the permissible
/// subset `set` for an attribute whose hierarchy is `h` and whose empirical
/// value histogram in D is `counts`.
///
/// Implementations must be scale-free in n (they may only use count
/// *ratios*) and must return 0 for singletons.
class LossMeasure {
 public:
  virtual ~LossMeasure() = default;

  virtual std::string name() const = 0;

  virtual double SetCost(const Hierarchy& h,
                         const std::vector<uint32_t>& counts,
                         SetId set) const = 0;
};

/// Builds a measure from its run-vocabulary name, which is also its name():
/// EM (entropy), LM, TM (tree) or SUP (suppression), as kanon_cli
/// --measure, the kanond submit param and .repro files spell it. Unknown
/// names are InvalidArgument.
Result<std::unique_ptr<LossMeasure>> MakeMeasure(const std::string& name);

}  // namespace kanon

#endif  // KANON_LOSS_MEASURE_H_
