#include "kanon/algo/clustering.h"

#include <algorithm>

#include "kanon/common/check.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

size_t Clustering::num_rows() const {
  size_t total = 0;
  for (const auto& cluster : clusters) {
    total += cluster.size();
  }
  return total;
}

size_t Clustering::min_cluster_size() const {
  size_t smallest = SIZE_MAX;
  for (const auto& cluster : clusters) {
    smallest = std::min(smallest, cluster.size());
  }
  return clusters.empty() ? 0 : smallest;
}

bool Clustering::IsPartitionOf(size_t n) const {
  std::vector<bool> seen(n, false);
  size_t count = 0;
  for (const auto& cluster : clusters) {
    for (uint32_t row : cluster) {
      if (row >= n || seen[row]) return false;
      seen[row] = true;
      ++count;
    }
  }
  return count == n;
}

GeneralizedTable TableFromClustering(
    std::shared_ptr<const GeneralizationScheme> scheme, const Dataset& dataset,
    const Clustering& clustering) {
  KANON_CHECK(scheme != nullptr, "scheme must not be null");
  KANON_CHECK(clustering.IsPartitionOf(dataset.num_rows()),
              "clustering must partition the dataset rows");
  PhaseSpan span(CurrentTracer(), "table-from-clustering");
  // The partition check above means every row is written exactly once.
  const size_t r = scheme->num_attributes();
  std::vector<SetId> cells(dataset.num_rows() * r);
  std::vector<SetId> closure(r);
  for (const auto& cluster : clustering.clusters) {
    scheme->ClosureOfRows(dataset, cluster, closure.data());
    for (uint32_t row : cluster) {
      std::copy(closure.begin(), closure.end(), cells.begin() + row * r);
    }
  }
  return GeneralizedTable::FromCells(std::move(scheme), std::move(cells))
      .value();
}

}  // namespace kanon
