#include "kanon/algo/agglomerative.h"

#include <string>
#include <type_traits>

#include "kanon/algo/agglomerative_engine.h"
#include "kanon/algo/policy.h"
#include "kanon/common/check.h"

namespace kanon {

std::vector<GeneralizedRecord> LeaveOneOutClosures(
    const Dataset& dataset, const GeneralizationScheme& scheme,
    const std::vector<uint32_t>& rows) {
  const size_t len = rows.size();
  const size_t r = scheme.num_attributes();
  KANON_CHECK(len >= 2, "leave-one-out needs at least two rows");
  // prefix[q] = closure of rows[0..q), suffix[q] = closure of rows[q..len).
  std::vector<GeneralizedRecord> prefix(len);
  std::vector<GeneralizedRecord> suffix(len + 1);
  prefix[1] = scheme.Identity(dataset.row_view(rows[0]));
  for (size_t q = 2; q < len; ++q) {
    prefix[q] = prefix[q - 1];
    for (size_t j = 0; j < r; ++j) {
      prefix[q][j] = scheme.hierarchy(j).JoinValue(
          prefix[q][j], dataset.at(rows[q - 1], j));
    }
  }
  suffix[len - 1] = scheme.Identity(dataset.row_view(rows[len - 1]));
  for (size_t q = len - 1; q-- > 1;) {
    suffix[q] = suffix[q + 1];
    for (size_t j = 0; j < r; ++j) {
      suffix[q][j] =
          scheme.hierarchy(j).JoinValue(suffix[q][j], dataset.at(rows[q], j));
    }
  }
  std::vector<GeneralizedRecord> out(len);
  out[0] = suffix[1];
  out[len - 1] = prefix[len - 1];
  for (size_t p = 1; p + 1 < len; ++p) {
    out[p] = scheme.JoinRecords(prefix[p], suffix[p + 1]);
  }
  return out;
}

// The library's one enum-to-policy dispatch: the DistanceFunction enum is
// translated to its compile-time policy here, exactly once per run, and the
// engine (agglomerative_engine.h) inlines every per-pair decision.
Result<Clustering> AgglomerativeCluster(const Dataset& dataset,
                                        const PrecomputedLoss& loss, size_t k,
                                        const AgglomerativeOptions& options) {
  const size_t n = dataset.num_rows();
  if (k < 1) {
    return Status::InvalidArgument("k must be at least 1");
  }
  if (k > n) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds the number of records " +
                                   std::to_string(n));
  }
  if (dataset.num_attributes() != loss.scheme().num_attributes()) {
    return Status::InvalidArgument("dataset/loss arity mismatch");
  }
  if (k == 1) {
    // Identity clustering: nothing to anonymize.
    Clustering out;
    out.clusters.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      out.clusters.push_back({i});
    }
    return out;
  }
  return DispatchDistancePolicy(
      options.distance, options.params, [&](const auto& policy) {
        using Policy = std::decay_t<decltype(policy)>;
        return internal::AgglomerativeEngine<Policy>(dataset, loss, k, options,
                                                     policy)
            .Run();
      });
}

Result<GeneralizedTable> AgglomerativeKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    const AgglomerativeOptions& options) {
  KANON_ASSIGN_OR_RETURN(Clustering clustering,
                         AgglomerativeCluster(dataset, loss, k, options));
  return TableFromClustering(loss.scheme_ptr(), dataset, clustering);
}

}  // namespace kanon
