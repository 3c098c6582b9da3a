#ifndef KANON_ALGO_CORE_ENGINE_ARGS_H_
#define KANON_ALGO_CORE_ENGINE_ARGS_H_

#include <string>

#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// 1 <= k <= num_records, with messages that name k and the number of
/// records. The engines check it through CheckEngineArgs; the shard driver,
/// which has a row count before it has a dataset, calls it directly.
inline Status CheckKRange(size_t k, size_t num_records) {
  const std::string n = std::to_string(num_records);
  if (k < 1) {
    return Status::InvalidArgument("k = 0 is below 1; the number of records "
                                   "is " + n);
  }
  if (k > num_records) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds the number of records " + n);
  }
  return Status::OK();
}

/// The argument check every engine runs first: 1 <= k <= n (CheckKRange),
/// and a loss over a scheme of the dataset's arity.
inline Status CheckEngineArgs(const Dataset& dataset,
                              const PrecomputedLoss& loss, size_t k) {
  KANON_RETURN_NOT_OK(CheckKRange(k, dataset.num_rows()));
  if (dataset.num_attributes() != loss.scheme().num_attributes()) {
    return Status::InvalidArgument("dataset/loss arity mismatch");
  }
  return Status::OK();
}

}  // namespace kanon

#endif  // KANON_ALGO_CORE_ENGINE_ARGS_H_
