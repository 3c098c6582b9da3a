#ifndef KANON_ALGO_CORE_ENGINE_ARGS_H_
#define KANON_ALGO_CORE_ENGINE_ARGS_H_

#include <string>

#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// The argument check every engine runs first: 1 <= k <= n, with messages
/// that name k and n, and a loss over a scheme of the dataset's arity.
inline Status CheckEngineArgs(const Dataset& dataset,
                              const PrecomputedLoss& loss, size_t k) {
  const std::string n = std::to_string(dataset.num_rows());
  if (k < 1) {
    return Status::InvalidArgument("k = 0 is below 1; the number of records "
                                   "is " + n);
  }
  if (k > dataset.num_rows()) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds the number of records " + n);
  }
  if (dataset.num_attributes() != loss.scheme().num_attributes()) {
    return Status::InvalidArgument("dataset/loss arity mismatch");
  }
  return Status::OK();
}

}  // namespace kanon

#endif  // KANON_ALGO_CORE_ENGINE_ARGS_H_
