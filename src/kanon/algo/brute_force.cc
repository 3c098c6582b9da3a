#include "kanon/algo/brute_force.h"

#include <algorithm>
#include <limits>

#include "kanon/algo/core/closure_store.h"
#include "kanon/algo/core/engine_args.h"
#include "kanon/common/check.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

namespace {

Status ValidateArgs(const Dataset& dataset, const PrecomputedLoss& loss,
                    size_t k, size_t max_n) {
  KANON_RETURN_NOT_OK(CheckEngineArgs(dataset, loss, k));
  if (dataset.num_rows() > max_n) {
    return Status::InvalidArgument(
        "brute force is limited to " + std::to_string(max_n) +
        " records; got " + std::to_string(dataset.num_rows()));
  }
  return Status::OK();
}

// Advances `pick` to the next strictly increasing (|pick|)-combination of
// {0..m-1}; returns false when exhausted.
bool NextCombination(std::vector<size_t>* pick, size_t m) {
  const size_t len = pick->size();
  size_t pos = len;
  while (pos > 0) {
    --pos;
    if ((*pick)[pos] < m - (len - pos)) {
      ++(*pick)[pos];
      for (size_t q = pos + 1; q < len; ++q) {
        (*pick)[q] = (*pick)[q - 1] + 1;
      }
      return true;
    }
  }
  return false;
}

// Enumerates partitions of {0..n-1} into parts of size >= k, tracking the
// cheapest. Rows are assigned in order; each row either
// joins an existing part or opens a new one (canonical form prevents
// duplicate partitions). Part costs go through an interned ClosureStore:
// the same part recurs in many partitions, so each distinct part is closed
// and priced exactly once.
class PartitionSearch {
 public:
  PartitionSearch(const Dataset& dataset, const PrecomputedLoss& loss,
                  size_t k, EngineCounters* counters)
      : dataset_(dataset),
        k_(k),
        n_(dataset.num_rows()),
        counters_(counters),
        store_(loss) {}

  Clustering Run() {
    PhaseSpan span(CurrentTracer(), "brute-force/search");
    span.set_items(n_);
    best_loss_ = std::numeric_limits<double>::infinity();
    parts_.clear();
    Recurse(0);
    store_.ExportCounters(counters_);
    Clustering out;
    out.clusters = best_parts_;
    return out;
  }

 private:
  void Recurse(uint32_t row) {
    if (row == n_) {
      for (const auto& part : parts_) {
        if (part.size() < k_) return;
      }
      const double total = CurrentLoss();
      if (total < best_loss_) {
        best_loss_ = total;
        best_parts_ = parts_;
      }
      return;
    }
    // Prune: remaining rows must be able to fill all parts short of k.
    size_t deficit = 0;
    for (const auto& part : parts_) {
      if (part.size() < k_) deficit += k_ - part.size();
    }
    if (deficit > n_ - row) return;

    // Index-based: the recursive call appends/removes parts, which may
    // reallocate parts_ and would invalidate references.
    const size_t num_parts = parts_.size();
    for (size_t p = 0; p < num_parts; ++p) {
      parts_[p].push_back(row);
      Recurse(row + 1);
      parts_[p].pop_back();
    }
    parts_.push_back({row});
    Recurse(row + 1);
    parts_.pop_back();
  }

  double CurrentLoss() {
    double total = 0.0;
    for (const auto& part : parts_) {
      total += static_cast<double>(part.size()) *
               store_.cost(store_.InternClosureOfRows(dataset_, part));
    }
    return total / static_cast<double>(n_);
  }

  const Dataset& dataset_;
  const size_t k_;
  const uint32_t n_;
  EngineCounters* const counters_;
  ClosureStore store_;

  std::vector<std::vector<uint32_t>> parts_;
  std::vector<std::vector<uint32_t>> best_parts_;
  double best_loss_ = 0.0;
};

}  // namespace

Result<Clustering> OptimalKAnonymityBruteForce(const Dataset& dataset,
                                               const PrecomputedLoss& loss,
                                               size_t k,
                                               EngineCounters* counters) {
  KANON_RETURN_NOT_OK(ValidateArgs(dataset, loss, k, /*max_n=*/12));
  return PartitionSearch(dataset, loss, k, counters).Run();
}

Result<GeneralizedTable> OptimalK1BruteForce(const Dataset& dataset,
                                             const PrecomputedLoss& loss,
                                             size_t k,
                                             EngineCounters* counters) {
  KANON_RETURN_NOT_OK(ValidateArgs(dataset, loss, k, /*max_n=*/16));
  PhaseSpan span(CurrentTracer(), "brute-force/search");
  const GeneralizationScheme& scheme = loss.scheme();
  const uint32_t n = static_cast<uint32_t>(dataset.num_rows());

  // Different companion subsets often close to the same record; interning
  // prices each distinct closure once across the whole enumeration.
  ClosureStore store(loss);
  GeneralizedTable table(loss.scheme_ptr());
  for (uint32_t i = 0; i < n; ++i) {
    // Enumerate (k-1)-subsets of {0..n-1} \ {i} via combination stepping.
    std::vector<uint32_t> others;
    for (uint32_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(j);
    }
    const size_t m = others.size();
    std::vector<size_t> pick(k - 1);
    for (size_t t = 0; t + 1 < k; ++t) pick[t] = t;

    double best_cost = std::numeric_limits<double>::infinity();
    GeneralizedRecord best_closure = scheme.Identity(dataset.row_view(i));
    if (k == 1) {
      table.AppendRecord(best_closure);
      continue;
    }
    do {
      std::vector<uint32_t> cluster = {i};
      for (size_t t : pick) cluster.push_back(others[t]);
      const ClosureStore::Id closure =
          store.InternClosureOfRows(dataset, cluster);
      const double cost = store.cost(closure);
      if (cost < best_cost) {
        best_cost = cost;
        best_closure.assign(store.row(closure),
                            store.row(closure) + best_closure.size());
      }
    } while (NextCombination(&pick, m));
    table.AppendRecord(best_closure);
  }
  store.ExportCounters(counters);
  return table;
}

double ClusteringLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                      const Clustering& clustering) {
  KANON_CHECK(clustering.IsPartitionOf(dataset.num_rows()),
              "clustering must partition the dataset rows");
  if (dataset.num_rows() == 0) return 0.0;
  double total = 0.0;
  for (const auto& cluster : clustering.clusters) {
    total += static_cast<double>(cluster.size()) *
             loss.ClosureCost(dataset, cluster);
  }
  return total / static_cast<double>(dataset.num_rows());
}

}  // namespace kanon
