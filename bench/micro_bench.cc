// Microbenchmarks for the columnar hot-path substrate (docs/performance.md).
//
// Each kernel is timed in two shapes inside one binary:
//   legacy   — the pre-columnar code shape: checked hierarchy(attr)
//              accessors per call, nested-vector cost tables, per-row
//              Record materialization;
//   columnar — the LossKernels / flat-buffer path the engines use now.
//
// The two shapes are verified to produce bitwise-identical results before
// anything is timed, so a reported speedup is never purchased with a
// different answer. Results go to stdout; --json[=path] also writes the
// machine-readable BENCH_micro.json tracked at the repo root (refresh
// workflow in docs/performance.md).
//
// The kernels run on one thread: these are per-kernel numbers, the
// parallel-scaling story lives in runtime_bench. The sweep-dispatch rows
// are the exception: they time whole ParallelChunks sweeps of the
// agglomerative repair pass's per-item work at 1, 2 and 4 threads, i.e.
// what handing short sweeps to the pool costs and buys.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "kanon/algo/agglomerative.h"
#include "kanon/algo/distance.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/common/check.h"
#include "kanon/common/parallel.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/generalization/scheme.h"
#include "kanon/graph/consistency_graph.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/kernels.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {
namespace {

using Clock = std::chrono::steady_clock;

// Foils dead-code elimination of the timed loops.
double g_sink = 0.0;

struct KernelTiming {
  std::string name;
  size_t items;        // Work units per repetition (for the per-item rate).
  double legacy_ns;    // Best-of-reps wall time, one repetition.
  double columnar_ns;
  double speedup() const { return legacy_ns / columnar_ns; }
};

// Best-of-`reps` wall time of fn() in nanoseconds. Best-of (not mean)
// because the interesting number is the undisturbed run.
template <typename Fn>
double TimeNs(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point stop = Clock::now();
    best = std::min(
        best, static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      stop - start)
                      .count()));
  }
  return best;
}

// The pre-refactor cost table shape: one vector per attribute, indexed by
// SetId, behind a second pointer chase.
std::vector<std::vector<double>> NestedCosts(const GeneralizationScheme& scheme,
                                             const PrecomputedLoss& loss) {
  std::vector<std::vector<double>> costs(scheme.num_attributes());
  for (size_t j = 0; j < scheme.num_attributes(); ++j) {
    const size_t num_sets = scheme.hierarchy(j).num_sets();
    costs[j].resize(num_sets);
    for (size_t s = 0; s < num_sets; ++s) {
      costs[j][s] = loss.EntryCost(j, static_cast<SetId>(s));
    }
  }
  return costs;
}

// Legacy agglomerative UnionCost: checked hierarchy accessor and nested
// cost vectors per attribute, per pair.
double LegacyUnionCost(const GeneralizationScheme& scheme,
                       const std::vector<std::vector<double>>& costs,
                       const GeneralizedRecord& a, const GeneralizedRecord& b) {
  const size_t r = a.size();
  double total = 0.0;
  for (size_t j = 0; j < r; ++j) {
    total += costs[j][scheme.hierarchy(j).Join(a[j], b[j])];
  }
  return total / static_cast<double>(r);
}

// Legacy (k,1) joined cost: closure + row through checked accessors.
double LegacyJoinedCost(const GeneralizationScheme& scheme,
                        const std::vector<std::vector<double>>& costs,
                        const Dataset& dataset,
                        const GeneralizedRecord& closure, uint32_t row) {
  const size_t r = closure.size();
  double total = 0.0;
  for (size_t j = 0; j < r; ++j) {
    total +=
        costs[j][scheme.hierarchy(j).JoinValue(closure[j], dataset.at(row, j))];
  }
  return total / static_cast<double>(r);
}

// Legacy closure of a row set: per-row Record materialization plus checked
// accessors, as the pre-columnar ClosureOfRows did.
GeneralizedRecord LegacyClosureOfRows(const GeneralizationScheme& scheme,
                                      const Dataset& dataset,
                                      const std::vector<uint32_t>& rows) {
  GeneralizedRecord acc = scheme.Identity(dataset.row(rows[0]));
  const size_t r = acc.size();
  for (size_t i = 1; i < rows.size(); ++i) {
    const Record rec = dataset.row(rows[i]);
    for (size_t j = 0; j < r; ++j) {
      acc[j] = scheme.hierarchy(j).JoinValue(acc[j], rec[j]);
    }
  }
  return acc;
}

// The m nearest rows to anchor u other than u itself, lexicographic in
// (cost, row), from costs priced one pair at a time: the legacy shape of
// the nearest-row queries.
template <typename PairCost>
std::vector<std::pair<double, uint32_t>> LegacyNearest(
    size_t n, uint32_t u, size_t m, PairCost&& cost,
    std::vector<std::pair<double, uint32_t>>* candidates) {
  candidates->clear();
  for (uint32_t v = 0; v < n; ++v) {
    if (v != u) candidates->emplace_back(cost(v), v);
  }
  std::partial_sort(candidates->begin(),
                    candidates->begin() + static_cast<ptrdiff_t>(m),
                    candidates->end());
  return {candidates->begin(),
          candidates->begin() + static_cast<ptrdiff_t>(m)};
}

// Times the m-nearest-row query of every anchor row u (skipping u) in the
// legacy shape, `legacy_cost(u, v)` per pair, and through one
// LossKernels::NearestRows sweep anchored at u's identity closure, after
// checking on a row sample that both return the same rows and cost bits.
template <typename LegacyCost>
KernelTiming BenchNearestRows(const char* name, size_t m,
                              const Dataset& dataset,
                              const LossKernels& kernels,
                              const std::vector<GeneralizedRecord>& singles,
                              int reps, LegacyCost&& legacy_cost) {
  const size_t n = dataset.num_rows();
  std::vector<uint64_t> self((n + 63) / 64, 0);
  std::vector<LossKernels::NearestRow> nearest;
  std::vector<std::pair<double, uint32_t>> candidates;
  auto sweep = [&](uint32_t u) {
    self[u >> 6] |= uint64_t{1} << (u & 63);
    kernels.NearestRows(singles[u].data(), 0.0, self.data(), m, &nearest);
    self[u >> 6] = 0;
  };

  // Bitwise equivalence first, on a row sample (full check is O(n²) too).
  for (uint32_t u = 0; u < n; u += 17) {
    sweep(u);
    const std::vector<std::pair<double, uint32_t>> want = LegacyNearest(
        n, u, m, [&](uint32_t v) { return legacy_cost(u, v); }, &candidates);
    KANON_CHECK(nearest.size() == want.size(),
                "nearest-row kernel diverged from the legacy loop");
    for (size_t i = 0; i < want.size(); ++i) {
      KANON_CHECK(nearest[i].row == want[i].second &&
                      std::memcmp(&nearest[i].cost, &want[i].first,
                                  sizeof(double)) == 0,
                  "nearest-row kernel diverged from the legacy loop");
    }
  }

  KernelTiming t;
  t.name = name;
  t.items = n * n;
  t.legacy_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      sink += LegacyNearest(
                  n, u, m, [&](uint32_t v) { return legacy_cost(u, v); },
                  &candidates)
                  .back()
                  .first;
    }
    g_sink += sink;
  });
  t.columnar_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      sweep(u);
      sink += nearest.back().cost;
    }
    g_sink += sink;
  });
  return t;
}

// --- Kernel 1: the forest's nearest out-of-component record (m = 1).
// Legacy: one UnionCost call per pair over precomputed singleton closures
// (the init scan before the refactor).
KernelTiming BenchPairSweep(const Dataset& dataset,
                            const GeneralizationScheme& scheme,
                            const LossKernels& kernels,
                            const std::vector<std::vector<double>>& costs,
                            const std::vector<GeneralizedRecord>& singles,
                            int reps) {
  return BenchNearestRows(
      "agglomerative_distance_pair_sweep", 1, dataset, kernels, singles, reps,
      [&](uint32_t u, uint32_t v) {
        return LegacyUnionCost(scheme, costs, singles[u], singles[v]);
      });
}

// --- Kernel 2: the (k,1) nearest-neighbor scan of K1NearestNeighbors, the
// k − 1 = 9 nearest records of every row. Legacy: one joined cost of the
// closure and a dataset row through checked accessors per pair.
KernelTiming BenchJoinedSweep(const Dataset& dataset,
                              const GeneralizationScheme& scheme,
                              const LossKernels& kernels,
                              const std::vector<std::vector<double>>& costs,
                              const std::vector<GeneralizedRecord>& singles,
                              int reps) {
  return BenchNearestRows(
      "k1_joined_cost_sweep", 9, dataset, kernels, singles, reps,
      [&](uint32_t u, uint32_t v) {
        return LegacyJoinedCost(scheme, costs, dataset, singles[u], v);
      });
}

// --- Kernel 3: ClosureOfRows over cluster-sized row sets (the closure
// primitive behind interning, shrink and the brute-force search).
KernelTiming BenchClosure(const Dataset& dataset,
                          const GeneralizationScheme& scheme, int reps) {
  const size_t n = dataset.num_rows();
  const size_t cluster_size = 16;
  // Deterministic pseudo-random clusters (xorshift; no global RNG).
  std::vector<std::vector<uint32_t>> clusters;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t c = 0; c < 512; ++c) {
    std::vector<uint32_t> rows(cluster_size);
    for (uint32_t& row : rows) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      row = static_cast<uint32_t>(state % n);
    }
    clusters.push_back(std::move(rows));
  }

  for (const std::vector<uint32_t>& rows : clusters) {
    KANON_CHECK(scheme.ClosureOfRows(dataset, rows) ==
                    LegacyClosureOfRows(scheme, dataset, rows),
                "closure kernel diverged from the legacy loop");
  }

  KernelTiming t;
  t.name = "closure_of_rows";
  t.items = clusters.size() * cluster_size;
  t.legacy_ns = TimeNs(reps, [&] {
    size_t sink = 0;
    for (const std::vector<uint32_t>& rows : clusters) {
      sink += LegacyClosureOfRows(scheme, dataset, rows)[0];
    }
    g_sink += static_cast<double>(sink);
  });
  t.columnar_ns = TimeNs(reps, [&] {
    size_t sink = 0;
    for (const std::vector<uint32_t>& rows : clusters) {
      sink += scheme.ClosureOfRows(dataset, rows)[0];
    }
    g_sink += static_cast<double>(sink);
  });
  return t;
}

// --- Kernel 4: batched record pricing (ShrinkToK's leave-one-out pass).
// Legacy: one heap record per candidate, priced through nested per-attribute
// cost vectors, as the shrink did when LeaveOneOutClosures returned a
// vector of records. Batched: RecordCostMany over the same records as one
// flat count x r buffer — the shape the shrink now fills and prices. Both
// fill the out-buffer the selection loop then reads.
KernelTiming BenchRecordCost(const GeneralizationScheme& scheme,
                             const PrecomputedLoss& loss,
                             const std::vector<std::vector<double>>& costs,
                             const std::vector<GeneralizedRecord>& singles,
                             int reps) {
  const size_t r = scheme.num_attributes();
  const double inv_r = 1.0 / static_cast<double>(r);
  // A leave-one-out pass prices thousands of records; replicate the
  // singleton closures to a batch of that magnitude.
  std::vector<GeneralizedRecord> records;
  records.reserve(16 * singles.size());
  for (int copy = 0; copy < 16; ++copy) {
    records.insert(records.end(), singles.begin(), singles.end());
  }
  std::vector<SetId> flat;
  flat.reserve(records.size() * r);
  for (const GeneralizedRecord& rec : records) {
    flat.insert(flat.end(), rec.begin(), rec.end());
  }
  std::vector<double> batch(records.size());
  std::vector<double> legacy(records.size());
  loss.RecordCostMany(flat.data(), records.size(), batch.data());
  for (size_t i = 0; i < records.size(); ++i) {
    double total = 0.0;
    for (size_t j = 0; j < r; ++j) total += costs[j][records[i][j]];
    KANON_CHECK(batch[i] == total * inv_r,
                "record-cost kernel diverged from the legacy loop");
  }

  KernelTiming t;
  t.name = "record_cost_batch";
  t.items = records.size();
  t.legacy_ns = TimeNs(reps, [&] {
    for (size_t i = 0; i < records.size(); ++i) {
      const GeneralizedRecord& rec = records[i];
      double total = 0.0;
      for (size_t j = 0; j < r; ++j) total += costs[j][rec[j]];
      legacy[i] = total * inv_r;
    }
    g_sink += legacy.back();
  });
  t.columnar_ns = TimeNs(reps, [&] {
    loss.RecordCostMany(flat.data(), records.size(), batch.data());
    g_sink += batch.back();
  });
  return t;
}

// --- Kernel 5: the per-pair distance arithmetic itself (why the
// agglomerative engine is a template on DistanceFunction,
// docs/algorithms.md). Legacy: the pre-template shape — one out-of-line
// call per pair that re-runs the DistanceFunction switch every time
// (noinline, exactly what the merge loops used to pay). Inline: the loop is
// instantiated per distance and ClusterDistance<F> inlines into it. Both
// sides cover all five distance functions over the same deterministic
// ingredient grid, with sizes shaped like the init scan.
[[gnu::noinline]] double LegacyDistance(DistanceFunction f, size_t size_a,
                                        size_t size_b, size_t size_union,
                                        double d_a, double d_b,
                                        double d_union) {
  switch (f) {
    case DistanceFunction::kWeighted:
      return ClusterDistance<DistanceFunction::kWeighted>(
          size_a, size_b, size_union, d_a, d_b, d_union);
    case DistanceFunction::kPlain:
      return ClusterDistance<DistanceFunction::kPlain>(
          size_a, size_b, size_union, d_a, d_b, d_union);
    case DistanceFunction::kLogWeighted:
      return ClusterDistance<DistanceFunction::kLogWeighted>(
          size_a, size_b, size_union, d_a, d_b, d_union);
    case DistanceFunction::kRatio:
      return ClusterDistance<DistanceFunction::kRatio>(
          size_a, size_b, size_union, d_a, d_b, d_union);
    case DistanceFunction::kNergizClifton:
      return ClusterDistance<DistanceFunction::kNergizClifton>(
          size_a, size_b, size_union, d_a, d_b, d_union);
  }
  KANON_CHECK(false, "unreachable distance function");
  return 0.0;
}

template <DistanceFunction F>
double InlineDistanceSweep(const std::vector<double>& single_costs) {
  const size_t n = single_costs.size();
  double acc = 0.0;
  for (uint32_t u = 0; u < n; ++u) {
    const size_t sa = 1 + (u & 7);
    const double da = single_costs[u];
    for (uint32_t v = 0; v < n; ++v) {
      const size_t sb = 1 + (v & 3);
      const double db = single_costs[v];
      acc += ClusterDistance<F>(sa, sb, sa + sb, da, db, da + db + 0.25);
    }
  }
  return acc;
}

// Bitwise equivalence of the two shapes for distance F, on a pair sample.
template <DistanceFunction F>
void CheckInlineMatchesLegacy(const std::vector<double>& single_costs) {
  const size_t n = single_costs.size();
  for (uint32_t u = 0; u < n; u += 17) {
    for (uint32_t v = 0; v < n; v += 13) {
      const size_t sa = 1 + (u & 7);
      const size_t sb = 1 + (v & 3);
      const double da = single_costs[u];
      const double db = single_costs[v];
      const double du = da + db + 0.25;
      KANON_CHECK(ClusterDistance<F>(sa, sb, sa + sb, da, db, du) ==
                      LegacyDistance(F, sa, sb, sa + sb, da, db, du),
                  "inlined distance diverged from the switch shape");
    }
  }
}

KernelTiming BenchDistanceDispatch(const std::vector<double>& single_costs,
                                   int reps) {
  const size_t n = single_costs.size();
  CheckInlineMatchesLegacy<DistanceFunction::kWeighted>(single_costs);
  CheckInlineMatchesLegacy<DistanceFunction::kPlain>(single_costs);
  CheckInlineMatchesLegacy<DistanceFunction::kLogWeighted>(single_costs);
  CheckInlineMatchesLegacy<DistanceFunction::kRatio>(single_costs);
  CheckInlineMatchesLegacy<DistanceFunction::kNergizClifton>(single_costs);

  KernelTiming t;
  t.name = "distance_dispatch_vs_policy";
  t.items = 5 * n * n;
  t.legacy_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (DistanceFunction f : kAllDistanceFunctions) {
      for (uint32_t u = 0; u < n; ++u) {
        const size_t sa = 1 + (u & 7);
        const double da = single_costs[u];
        for (uint32_t v = 0; v < n; ++v) {
          const size_t sb = 1 + (v & 3);
          const double db = single_costs[v];
          sink += LegacyDistance(f, sa, sb, sa + sb, da, db, da + db + 0.25);
        }
      }
    }
    g_sink += sink;
  });
  t.columnar_ns = TimeNs(reps, [&] {
    g_sink +=
        InlineDistanceSweep<DistanceFunction::kWeighted>(single_costs) +
        InlineDistanceSweep<DistanceFunction::kPlain>(single_costs) +
        InlineDistanceSweep<DistanceFunction::kLogWeighted>(single_costs) +
        InlineDistanceSweep<DistanceFunction::kRatio>(single_costs) +
        InlineDistanceSweep<DistanceFunction::kNergizClifton>(single_costs);
  });
  return t;
}

// Clusters shaped like the agglomerative engine's mid-run state: closures
// of 1-12 random rows in creation order, each both as its own heap record
// (scattered allocations, as the engine's closures once were) and as a row
// of one flat array.
struct ClusterClosures {
  std::vector<GeneralizedRecord> records;  // Cluster -> its own record.
  std::vector<SetId> rows;                 // Cluster -> its closure, flat.
};

ClusterClosures MakeClusterClosures(const Dataset& dataset,
                                    const GeneralizationScheme& scheme,
                                    size_t clusters) {
  const size_t n = dataset.num_rows();
  const size_t r = scheme.num_attributes();
  ClusterClosures out;
  uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<uint32_t> members;
  for (size_t c = 0; c < clusters; ++c) {
    members.assign(1 + next() % 12, 0);
    for (uint32_t& row : members) row = static_cast<uint32_t>(next() % n);
    out.records.push_back(scheme.ClosureOfRows(dataset, members));
    const GeneralizedRecord& record = out.records.back();
    out.rows.insert(out.rows.end(), record.begin(), record.begin() + r);
  }
  return out;
}

// --- Kernel 6: d(A ∪ X) of one cluster against every cluster, the pricing
// step of the agglomerative repair pass and rescans. Legacy: each closure
// read through its own heap record (vector -> data), as the engine did
// before it kept flat rows. Columnar: the flat per-cluster rows the engine
// keeps now. Same kernel, same arithmetic; only the row source differs.
KernelTiming BenchUnionSweep(const Dataset& dataset,
                             const GeneralizationScheme& scheme,
                             const LossKernels& kernels, int reps) {
  constexpr size_t kClusters = 8000;
  constexpr size_t kAnchors = 64;
  const size_t r = scheme.num_attributes();
  const ClusterClosures clusters =
      MakeClusterClosures(dataset, scheme, kClusters);
  const auto via_records = [&](size_t a, size_t x) {
    return kernels.UnionCost(clusters.records[a].data(),
                             clusters.records[x].data());
  };
  const auto via_rows = [&](size_t a, size_t x) {
    return kernels.UnionCost(clusters.rows.data() + a * r,
                             clusters.rows.data() + x * r);
  };
  for (size_t a = 0; a < kClusters; a += 97) {
    for (size_t x = 0; x < kClusters; ++x) {
      KANON_CHECK(via_records(a, x) == via_rows(a, x),
                  "flat closure rows diverged from the per-record path");
    }
  }

  KernelTiming t;
  t.name = "union_sweep_flat_rows";
  t.items = kAnchors * kClusters;
  const auto sweep = [&](const auto& cost) {
    double sink = 0.0;
    for (size_t a = 0; a < kAnchors; ++a) {
      const size_t anchor = a * 89 % kClusters;
      for (size_t x = 0; x < kClusters; ++x) sink += cost(anchor, x);
    }
    g_sink += sink;
  };
  t.legacy_ns = TimeNs(reps, [&] { sweep(via_records); });
  t.columnar_ns = TimeNs(reps, [&] { sweep(via_rows); });
  return t;
}

// --- Kernel 7: the consistency graph V_{D,g(D)} of a (k,k) table — the
// graph Algorithm 6 and the global (1,k) verifier match on. Legacy: the
// ConsistentPair double loop. Columnar: BuildConsistencyGraph, one
// ConsistencyIndex query (r ANDs of n/64 words) per original. Every
// adjacency list must agree edge for edge, in order.
BipartiteGraph ScalarConsistencyGraph(const Dataset& dataset,
                                      const GeneralizedTable& table) {
  BipartiteGraph graph(dataset.num_rows(), table.num_rows());
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) {
    for (uint32_t t = 0; t < table.num_rows(); ++t) {
      if (table.ConsistentPair(dataset, i, t)) graph.AddEdge(i, t);
    }
  }
  return graph;
}

KernelTiming BenchConsistencyGraph(const Dataset& dataset,
                                   const PrecomputedLoss& loss, int reps) {
  constexpr size_t kK = 10;
  const GeneralizedTable table = KKAnonymize(
      dataset, loss, kK, K1Algorithm::kGreedyExpansion).value();
  const size_t n = dataset.num_rows();
  const BipartiteGraph scalar = ScalarConsistencyGraph(dataset, table);
  const BipartiteGraph indexed = BuildConsistencyGraph(dataset, table);
  KANON_CHECK(scalar.num_edges() == indexed.num_edges(),
              "index-built consistency graph has a different edge count");
  for (uint32_t i = 0; i < n; ++i) {
    KANON_CHECK(scalar.Neighbors(i) == indexed.Neighbors(i),
                "index-built consistency graph diverged from the double loop");
  }

  KernelTiming t;
  t.name = "consistency_graph_index";
  t.items = n * n;
  t.legacy_ns = TimeNs(reps, [&] {
    g_sink += static_cast<double>(
        ScalarConsistencyGraph(dataset, table).num_edges());
  });
  t.columnar_ns = TimeNs(reps, [&] {
    g_sink +=
        static_cast<double>(BuildConsistencyGraph(dataset, table).num_edges());
  });
  return t;
}

// One sweep-dispatch row: a whole ParallelChunks sweep over n clusters of
// the repair pass's per-item work (one flat-row UnionCost), cut at the
// engine's grain, against the same loop run inline with no sweep at all.
struct SweepTiming {
  size_t n;
  int threads;
  size_t chunks;
  double sweep_us;   // Best-of-reps mean time of one ParallelChunks sweep.
  double inline_us;  // The same items as one plain loop.
};

std::vector<SweepTiming> BenchSweepDispatch(
    const Dataset& dataset, const GeneralizationScheme& scheme,
    const LossKernels& kernels, int reps) {
  constexpr size_t kSweeps = 2000;
  const size_t grain = internal::kAgglomerativeCheapSweepGrain;
  const size_t r = scheme.num_attributes();
  std::vector<SweepTiming> out;
  for (size_t n : {512u, 2048u, 8000u}) {
    const ClusterClosures clusters = MakeClusterClosures(dataset, scheme, n);
    const SetId* rows = clusters.rows.data();
    std::vector<double> partials(ParallelChunkCount(n, grain));
    const auto items = [&](size_t anchor, size_t begin, size_t end) {
      double sum = 0.0;
      for (size_t x = begin; x < end; ++x) {
        sum += kernels.UnionCost(rows + anchor * r, rows + x * r);
      }
      return sum;
    };
    const double inline_ns = TimeNs(reps, [&] {
      double sink = 0.0;
      for (size_t s = 0; s < kSweeps; ++s) sink += items(s % n, 0, n);
      g_sink += sink;
    });
    double serial_sum = 0.0;
    for (size_t s = 0; s < 4; ++s) serial_sum += items(s, 0, n);
    for (int threads : {1, 2, 4}) {
      const auto run = [&](size_t sweeps) {
        double sink = 0.0;
        for (size_t s = 0; s < sweeps; ++s) {
          ParallelChunks(
              n, threads, nullptr, "micro/sweep",
              [&](size_t chunk, size_t begin, size_t end) {
                partials[chunk] = items(s % n, begin, end);
              },
              grain);
          // Chunk-order fold: not bitwise the serial sum, but the same at
          // every thread count.
          for (double p : partials) sink += p;
        }
        return sink;
      };
      KANON_CHECK(std::abs(run(4) - serial_sum) <= 1e-9 * serial_sum,
                  "sweep-dispatch sweeps lost or repeated items");
      const double ns = TimeNs(reps, [&] { g_sink += run(kSweeps); });
      out.push_back(SweepTiming{n, threads, partials.size(),
                                ns / kSweeps / 1e3,
                                inline_ns / kSweeps / 1e3});
    }
  }
  return out;
}

void WriteJson(const std::string& path, size_t n, size_t r,
               const std::vector<KernelTiming>& timings,
               const std::vector<SweepTiming>& sweeps) {
  std::ofstream out(path);
  KANON_CHECK(out.good(), "cannot open JSON output path");
  out << "{\n";
  out << "  \"workload\": \"ART\",\n";
  out << "  \"n\": " << n << ",\n";
  out << "  \"r\": " << r << ",\n";
  out << "  \"threads\": 1,\n";
  out << "  \"kernels\": [\n";
  for (size_t i = 0; i < timings.size(); ++i) {
    const KernelTiming& t = timings[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"items\": %zu, "
                  "\"legacy_ns_per_item\": %.2f, "
                  "\"columnar_ns_per_item\": %.2f, \"speedup\": %.2f}%s\n",
                  t.name.c_str(), t.items,
                  t.legacy_ns / static_cast<double>(t.items),
                  t.columnar_ns / static_cast<double>(t.items), t.speedup(),
                  i + 1 < timings.size() ? "," : "");
    out << line;
  }
  out << "  ],\n";
  out << "  \"sweep_dispatch\": [\n";
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const SweepTiming& t = sweeps[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"n\": %zu, \"threads\": %d, \"chunks\": %zu, "
                  "\"us_per_sweep\": %.2f, \"inline_us\": %.2f}%s\n",
                  t.n, t.threads, t.chunks, t.sweep_us, t.inline_us,
                  i + 1 < sweeps.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  const FlagParser flags = bench::ParseBenchFlags(argc, argv, {"n", "reps"});
  const auto n = static_cast<size_t>(flags.GetInt("n", 1000));
  const auto reps = static_cast<int>(
      std::min<int64_t>(flags.GetInt("reps", 5), INT32_MAX));
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0 || arg.rfind("--reps=", 0) == 0) {
      continue;
    } else if (arg == "--json") {
      json_path = "BENCH_micro.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: micro_bench [--n=N] [--reps=R] [--json[=path]]\n");
      return 2;
    }
  }

  const Workload w = bench::MustArtWorkload(n, /*seed=*/20080407);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  const GeneralizationScheme& scheme = loss.scheme();
  const LossKernels kernels(w.dataset, loss);
  const std::vector<std::vector<double>> costs = NestedCosts(scheme, loss);

  std::vector<GeneralizedRecord> singles(n);
  for (uint32_t i = 0; i < n; ++i) {
    singles[i] = scheme.Identity(w.dataset.row_view(i));
  }

  std::vector<KernelTiming> timings;
  timings.push_back(
      BenchPairSweep(w.dataset, scheme, kernels, costs, singles, reps));
  timings.push_back(
      BenchJoinedSweep(w.dataset, scheme, kernels, costs, singles, reps));
  timings.push_back(BenchClosure(w.dataset, scheme, reps));
  timings.push_back(BenchRecordCost(scheme, loss, costs, singles, reps));
  std::vector<double> single_costs(n);
  for (uint32_t i = 0; i < n; ++i) {
    single_costs[i] = loss.RecordCost(singles[i].data());
  }
  timings.push_back(BenchDistanceDispatch(single_costs, reps));
  timings.push_back(BenchUnionSweep(w.dataset, scheme, kernels, reps));
  timings.push_back(BenchConsistencyGraph(w.dataset, loss, reps));
  const std::vector<SweepTiming> sweeps =
      BenchSweepDispatch(w.dataset, scheme, kernels, reps);

  std::printf("micro_bench: ART n=%zu r=%zu, 1 thread, best of %d reps\n", n,
              scheme.num_attributes(), reps);
  std::printf("%-36s %14s %14s %8s\n", "kernel", "legacy ns/item",
              "columnar ns/it", "speedup");
  for (const KernelTiming& t : timings) {
    std::printf("%-36s %14.2f %14.2f %7.2fx\n", t.name.c_str(),
                t.legacy_ns / static_cast<double>(t.items),
                t.columnar_ns / static_cast<double>(t.items), t.speedup());
  }
  std::printf("\nsweep dispatch (repair-pass items, grain %zu)\n",
              internal::kAgglomerativeCheapSweepGrain);
  std::printf("%8s %8s %8s %14s %14s\n", "n", "threads", "chunks",
              "us/sweep", "inline us");
  for (const SweepTiming& t : sweeps) {
    std::printf("%8zu %8d %8zu %14.2f %14.2f\n", t.n, t.threads, t.chunks,
                t.sweep_us, t.inline_us);
  }
  if (!json_path.empty()) {
    WriteJson(json_path, n, scheme.num_attributes(), timings, sweeps);
    std::printf("wrote %s\n", json_path.c_str());
  }
  // The sink keeps the timed loops observable; print it so the compiler
  // cannot argue otherwise.
  std::fprintf(stderr, "checksum %.3f\n", g_sink);
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
