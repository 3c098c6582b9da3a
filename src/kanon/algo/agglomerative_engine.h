#ifndef KANON_ALGO_AGGLOMERATIVE_ENGINE_H_
#define KANON_ALGO_AGGLOMERATIVE_ENGINE_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/core/active_clusters.h"
#include "kanon/algo/core/closure_store.h"
#include "kanon/algo/policy.h"
#include "kanon/common/check.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/parallel.h"
#include "kanon/loss/kernels.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"

// The agglomerative engine (docs/policy_engine.md): Algorithm 1/2, with
// the merge rule supplied by a ClusterPolicy as an inlinable Distance
// member instead of the runtime EvalDistance switch. Internal to
// agglomerative.cc, which instantiates it once per built-in policy behind
// AgglomerativeCluster's one dispatch.

namespace kanon {

namespace internal {

// The basic and modified variants of Algorithm 1. ActiveClusters owns who
// is alive and who is nearest (the active list, the two-best candidates and
// near-lists) and folds the next merge from them; the engine owns what a
// cluster is (members, closure and the dense rows the sweeps price); the
// shared ClosureStore hash-conses every cluster closure and memoizes its
// cost.
// `Policy` supplies the distance and the (a)symmetry of the merge rule;
// both inline into the sweeps.
template <typename Policy>
class AgglomerativeEngine {
  KANON_ASSERT_CLUSTER_POLICY(Policy);

 public:
  AgglomerativeEngine(const Dataset& dataset, const PrecomputedLoss& loss,
                      size_t k, const AgglomerativeOptions& options,
                      const Policy& policy)
      : dataset_(dataset),
        loss_(loss),
        scheme_(loss.scheme()),
        k_(k),
        options_(options),
        policy_(policy),
        ctx_(options.run_context),
        num_attrs_(dataset.num_attributes()),
        tracer_(CurrentTracer()),
        merge_cost_(CurrentMetrics() == nullptr
                        ? nullptr
                        : CurrentMetrics()->GetHistogram(
                              "merge.cost", {0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
                                             0.6, 0.7, 0.8, 0.9, 1.0})),
        kernels_(dataset, loss),
        store_(loss),
        added_table_(kernels_.joined_table_size()),
        anchor_table_(kernels_.joined_table_size()) {}

  Result<Clustering> Run() {
    {
      PhaseSpan span(tracer_, "agglomerative/init");
      KANON_RETURN_NOT_OK(InitSingletons());
    }
    {
      PhaseSpan span(tracer_, "agglomerative/heap-drain");
      KANON_RETURN_NOT_OK(MainLoop());
    }
    PhaseSpan span(tracer_, "agglomerative/finalize");
    if (Stopped()) {
      FinalizeDegraded();
    } else {
      DistributeLeftover();
    }
    store_.ExportCounters(options_.counters);
    Clustering out;
    for (uint32_t id : final_) {
      out.clusters.push_back(std::move(clusters_[id].members));
    }
    return out;
  }

 private:
  // One cluster: its members and its closure. Contents are immutable
  // between merges (merges create fresh clusters), except for the wind-down
  // passes that shrink or absorb into a cluster in place.
  struct ClusterData {
    std::vector<uint32_t> members;  // Dataset rows, ascending.
    ClosureStore::Id closure = ClosureStore::kInvalidId;
  };

  // One cooperative checkpoint per engine iteration.
  bool CheckPoint(const char* stage) {
    return ctx_ != nullptr && ctx_->CheckPoint(stage);
  }

  bool Stopped() const { return ctx_ != nullptr && ctx_->stopped(); }

  void CountChunks(size_t n, size_t grain) {
    if (options_.counters != nullptr) {
      options_.counters->parallel_chunks += ParallelChunkCount(n, grain);
    }
  }

  // Cluster id's closure as a flat row of r set ids (see rows_).
  const SetId* Row(uint32_t id) const {
    return rows_.data() + static_cast<size_t>(id) * num_attrs_;
  }

  // Dataset row `row`'s identity closure. Clusters 0..n-1 are the init
  // singletons, and only clusters created later ever get a new closure.
  const SetId* SingletonRow(uint32_t row) const { return Row(row); }

  // d(A ∪ B) computed attribute-wise through the raw join tables and the
  // flat cost rows; O(r), same additions in the same order as the checked
  // accessor loop it replaced.
  double UnionCost(uint32_t a, uint32_t b) const {
    return kernels_.UnionCost(Row(a), Row(b));
  }

  double DistFromUnionCost(uint32_t a, uint32_t b, double d_union) const {
    return policy_.Distance(size_[a], size_[b], size_t{size_[a]} + size_[b],
                            cost_[a], cost_[b], d_union);
  }

  double Dist(uint32_t a, uint32_t b) const {
    return DistFromUnionCost(a, b, UnionCost(a, b));
  }

  // Grows the per-id arrays (clusters_, rows_, cost_, size_) to cover
  // ids < n.
  void GrowDense(size_t n) {
    if (cost_.size() >= n) return;
    const size_t grown = std::max(n, 2 * cost_.size());
    clusters_.resize(grown);
    cost_.resize(grown);
    size_.resize(grown);
    rows_.resize(grown * num_attrs_);
  }

  // Gives cluster id the stored closure `closure`: mirrors its memoized
  // cost into cost_ and copies its set ids into the cluster's row.
  void SetClosure(uint32_t id, ClosureStore::Id closure) {
    clusters_[id].closure = closure;
    cost_[id] = store_.cost(closure);
    const SetId* row = store_.row(closure);
    std::copy(row, row + num_attrs_,
              rows_.begin() + static_cast<ptrdiff_t>(id * num_attrs_));
  }

  // The nearest keys of x over every active cluster, O(active · r), spread
  // over the worker threads: chunk-local lists merged in chunk order give
  // the serial ascending scan's list exactly. Pricing goes through one
  // joined-cost table anchored at x, the terms of Dist(x, y) in its order.
  // Runs after a repair pass (or the init), when every active cluster is
  // alive.
  NearList::Scan ComputeNearest(uint32_t x) {
    const std::vector<uint32_t>& active = active_.active();
    const size_t m = active.size();
    kernels_.FillJoinedCostTable(Row(x), anchor_table_.data());
    const double* table = anchor_table_.data();
    std::vector<NearList::Scan> parts(
        ParallelChunkCount(m, kAgglomerativeCheapSweepGrain));
    ParallelChunks(
        m, options_.num_threads, nullptr, "agglomerative/rescan",
        [&](size_t chunk, size_t begin, size_t end) {
          NearList::Scan local;
          for (size_t t = begin; t < end; ++t) {
            const uint32_t y = active[t];
            if (y == x) continue;
            local.Offer(y, DistFromUnionCost(
                               x, y, kernels_.TableUnionCost(table, Row(y))));
          }
          parts[chunk] = local;
        },
        kAgglomerativeCheapSweepGrain);
    NearList::Scan all;
    for (const NearList::Scan& part : parts) {
      for (uint32_t i = 0; i < part.size; ++i) all.Offer(part.id[i], part.d[i]);
    }
    return all;
  }

  // Recomputes x's two-best and near-list over every active cluster.
  void FullRescan(uint32_t x) {
    PhaseSpan span(tracer_, "agglomerative/rescan");
    if (options_.counters != nullptr) ++options_.counters->rescans;
    CountChunks(active_.active().size(), kAgglomerativeCheapSweepGrain);
    active_.SetScanned(x, ComputeNearest(x));
  }

  // The check_exact_merges cross-check of a two-best that did not come
  // from a full scan (the distinct-tuple init, a near-list answer): it must
  // be the full scan's, bit for bit.
  void CheckAgainstFullScan(uint32_t x, const char* what) {
    const CandidatePair want = ComputeNearest(x).TwoBest();
    const CandidatePair& got = active_.candidate(x);
    KANON_CHECK(got.c1 == want.c1 && got.d1 == want.d1 &&
                    got.c2 == want.c2 && got.d2 == want.d2 &&
                    got.second_valid,
                what);
  }

  // The check_exact_merges cross-check of a merge, by brute force: the
  // active list is exactly the alive clusters, ascending; `top` is the
  // smallest key (d1, x, c1) over their candidates; and no alive pair is
  // closer (up to rounding: a symmetric policy prices each pair in one
  // argument order only).
  void CheckSmallestKey(const MergeCandidate& top) const {
    std::vector<uint32_t> alive;
    for (uint32_t id = 0; id < active_.num_ids(); ++id) {
      if (active_.Alive(id)) alive.push_back(id);
    }
    KANON_CHECK(active_.active() == alive,
                "the active list must hold exactly the alive clusters");
    MergeCandidate want = kNoMerge;
    for (uint32_t x : alive) {
      const CandidatePair& c = active_.candidate(x);
      if (c.c1 != kNoCluster) FoldKey(&want, MergeCandidate{c.d1, x, c.c1});
      for (uint32_t y : alive) {
        if (y == x) continue;
        KANON_CHECK(Dist(x, y) >= top.dist - 1e-12,
                    "engine merged a non-minimal pair");
      }
    }
    KANON_CHECK(top.dist == want.dist && top.a == want.a && top.b == want.b,
                "engine merged other than the smallest key");
  }

  Status InitSingletons() {
    const size_t n = dataset_.num_rows();
    GrowDense(2 * n);
    for (uint32_t i = 0; i < n; ++i) {
      active_.Activate(active_.Add());
      clusters_[i].members = {i};
      size_[i] = 1;
    }
    // Singleton closures, O(n·r); items are disjoint slots. The raw
    // closures land in one flat n x r scratch array and intern serially
    // after the barrier — ClosureStore is single-threaded by design, and the
    // serial pass prices each distinct closure exactly once.
    std::vector<SetId> raw(n * num_attrs_);
    CountChunks(n, kAgglomerativeCheapSweepGrain);
    const SweepStatus closures = ParallelFor(
        n, options_.num_threads, ctx_, "agglomerative/init",
        [&](size_t i) {
          const RowView row = dataset_.row_view(i);
          SetId* out = raw.data() + i * num_attrs_;
          for (size_t j = 0; j < num_attrs_; ++j) {
            out[j] = scheme_.hierarchy(j).LeafOf(row[j]);
          }
        },
        kAgglomerativeCheapSweepGrain);
    // A stop here leaves the closures unset; the degraded wind-down pools
    // records by membership only, so that is safe.
    if (!closures.completed) return Status::OK();
    {
      PhaseSpan intern_span(tracer_, "agglomerative/closure-intern");
      intern_span.set_items(n);
      for (uint32_t i = 0; i < n; ++i) {
        SetClosure(i, store_.Intern(raw.data() + i * num_attrs_));
      }
    }
    raw.clear();
    raw.shrink_to_fit();
    return InitNearest();
  }

  // The all-pairs scan, the O(n²·r) part of setup, over distinct tuples.
  // The store interned the singletons first, so closure ids 0..D-1 are the
  // distinct tuples, and a pair's distance depends on its two tuples only.
  //
  // Per tuple t, one sweep prices every tuple s (a joined-cost table
  // anchored at t, so the bits of NearestRows and UnionCost) and keeps
  // the smallest (d, row) keys over the rows of the other tuples; s offers
  // its rows in ascending id and stops at the first reject. A row's keys
  // are then its tuple's merged with its tuple-mates at d(t, t). The kept
  // keys are the smallest over every other row, in the (d, id) order of
  // KeyLess, and NearestKeys does not depend on the offer order: so
  // each row's two-best is the one an ascending scan of every row picks,
  // and the rest of its keys fill its near-list. The tuple sweep honors the
  // run's controls like the old per-row scan; the first merge's key is
  // folded after, on one thread.
  Status InitNearest() {
    const size_t n = dataset_.num_rows();
    const size_t num_tuples = store_.size();
    std::vector<uint32_t> tuple_start(num_tuples + 1, 0);
    std::vector<uint32_t> tuple_rows(n);
    for (uint32_t i = 0; i < n; ++i) {
      ++tuple_start[clusters_[i].closure + 1];
    }
    for (size_t t = 0; t < num_tuples; ++t) {
      tuple_start[t + 1] += tuple_start[t];
    }
    // Tuple t's set ids attribute-major (attribute j at j·D + t) for the
    // columnar sweep, and its first row, whose closure row anchors t's
    // joined-cost table.
    std::vector<SetId> tuple_cols(num_attrs_ * num_tuples);
    std::vector<uint32_t> tuple_first(num_tuples);
    std::vector<double> tuple_cost(num_tuples);
    {
      std::vector<uint32_t> fill(tuple_start.begin(), tuple_start.end() - 1);
      for (uint32_t i = 0; i < n; ++i) {
        const ClosureStore::Id t = clusters_[i].closure;
        if (fill[t] == tuple_start[t]) {
          tuple_first[t] = i;
          tuple_cost[t] = cost_[i];
          for (size_t j = 0; j < num_attrs_; ++j) {
            tuple_cols[j * num_tuples + t] = Row(i)[j];
          }
        }
        tuple_rows[fill[t]++] = i;
      }
    }

    std::vector<NearList::Scan> tuple_near(num_tuples);
    std::vector<double> self_dist(num_tuples);
    CountChunks(num_tuples, 1);
    const SweepStatus scan = ParallelChunks(
        num_tuples, options_.num_threads, ctx_, "agglomerative/init",
        [&](size_t /*chunk*/, size_t begin, size_t end) {
          std::vector<double> table(kernels_.joined_table_size());
          std::vector<double> dist(num_tuples);
          for (size_t t = begin; t < end; ++t) {
            kernels_.FillJoinedCostTable(Row(tuple_first[t]), table.data());
            kernels_.TableCostSweep(table.data(), tuple_cols.data(),
                                    num_tuples, dist.data());
            for (size_t s = 0; s < num_tuples; ++s) {
              dist[s] = policy_.Distance(1, 1, 2, tuple_cost[t],
                                         tuple_cost[s], dist[s]);
            }
            self_dist[t] = dist[t];
            NearList::Scan near;
            for (size_t s = 0; s < num_tuples; ++s) {
              const double d = dist[s];
              if (s == t || (near.full() && d > near.d[near.size - 1])) {
                continue;
              }
              for (uint32_t p = tuple_start[s]; p < tuple_start[s + 1]; ++p) {
                if (!near.Offer(tuple_rows[p], d)) break;
              }
            }
            tuple_near[t] = near;
          }
        });
    if (!scan.completed) return Status::OK();

    std::vector<Status> errors(
        ParallelChunkCount(n, kAgglomerativeCheapSweepGrain));
    CountChunks(n, kAgglomerativeCheapSweepGrain);
    ParallelChunks(
        n, options_.num_threads, nullptr, "agglomerative/init",
        [&](size_t chunk, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            if (failpoint::AnyArmed()) {
              Status s = failpoint::Check("agglomerative.closure");
              if (!s.ok()) {
                errors[chunk] = std::move(s);
                return;
              }
            }
            const ClosureStore::Id t = clusters_[i].closure;
            NearList::Scan near = tuple_near[t];
            for (uint32_t p = tuple_start[t]; p < tuple_start[t + 1]; ++p) {
              if (tuple_rows[p] == i) continue;
              if (!near.Offer(tuple_rows[p], self_dist[t])) break;
            }
            active_.SetNearest(static_cast<uint32_t>(i), near,
                               static_cast<uint32_t>(n));
          }
        },
        kAgglomerativeCheapSweepGrain);
    for (Status& s : errors) {
      if (!s.ok()) return std::move(s);
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (options_.check_exact_merges) {
        CheckAgainstFullScan(i, "distinct-tuple init differs from a full scan");
      }
      active_.FoldCandidate(i);
    }
    return Status::OK();
  }

  // A new cluster of `members`, dead until a repair pass adds it; the
  // caller sets its closure.
  uint32_t NewCluster(std::vector<uint32_t> members) {
    const uint32_t id = active_.Add();
    GrowDense(id + 1);
    size_[id] = static_cast<uint32_t>(members.size());
    clusters_[id].members = std::move(members);
    return id;
  }

  uint32_t Merge(uint32_t a, uint32_t b) {
    std::vector<uint32_t> members = clusters_[a].members;
    members.insert(members.end(), clusters_[b].members.begin(),
                   clusters_[b].members.end());
    std::sort(members.begin(), members.end());
    const ClosureStore::Id closure =
        store_.InternJoin(clusters_[a].closure, clusters_[b].closure);
    active_.Deactivate(a);
    active_.Deactivate(b);
    if (options_.counters != nullptr) ++options_.counters->merges;
    const uint32_t id = NewCluster(std::move(members));
    SetClosure(id, closure);
    return id;
  }

  // One pass over the active set after a merge. When `added` is not
  // kNoCluster it is the freshly created cluster: its two-best and
  // near-list are built, it is offered to everyone, and it joins the active
  // set. Each chunk gathers its alive clusters, prices them against `added`
  // through one joined-cost table and runs their repair steps, which touch
  // only each cluster's own slot; ApplyRepairPass then folds the chunks in
  // order, so the outcome matches a serial pass exactly, and leaves the
  // active list holding exactly the alive clusters. Clusters whose
  // candidates were wiped out are answered from their near-lists at the
  // end, or rescanned in full when a list cannot answer.
  void RepairAndMaybeAdd(uint32_t added) {
    PhaseSpan span(tracer_, "agglomerative/repair");
    // The policy decides at compile time whether the merge rule is
    // direction-sensitive; symmetric policies never price the reverse pair.
    constexpr bool asymmetric = Policy::kAsymmetric;
    const size_t m = active_.active().size();
    repair_chunks_.resize(ParallelChunkCount(m, kAgglomerativeCheapSweepGrain));
    CountChunks(m, kAgglomerativeCheapSweepGrain);
    if (added != kNoCluster) {
      kernels_.FillJoinedCostTable(Row(added), added_table_.data());
    }
    const double* table = added_table_.data();
    repair_prices_.resize(repair_chunks_.size());
    ParallelChunks(
        m, options_.num_threads, nullptr, "agglomerative/repair",
        [&](size_t chunk, size_t begin, size_t end) {
          // Built in a local (reusing the slot's buffers) and stored once,
          // so chunks never write next to each other's slots mid-scan.
          RepairChunk local = std::move(repair_chunks_[chunk]);
          local.Clear();
          RepairPrices& prices = repair_prices_[chunk];
          PriceAgainstAdded(added, table, begin, end, &local.ids, &prices);
          for (size_t i = 0; i < local.ids.size(); ++i) {
            active_.RepairStep(local.ids[i], added, prices.d_added_x[i],
                               asymmetric ? prices.d_x_added[i]
                                          : prices.d_added_x[i],
                               &local);
          }
          repair_chunks_[chunk] = std::move(local);
        },
        kAgglomerativeCheapSweepGrain);
    std::vector<uint32_t> needs_rescan;
    active_.ApplyRepairPass(added, repair_chunks_, &needs_rescan);
    for (uint32_t x : needs_rescan) {
      if (!active_.ServeRescan(x, [&](uint32_t y) { return Dist(x, y); })) {
        FullRescan(x);
      } else if (options_.check_exact_merges) {
        CheckAgainstFullScan(x, "near-list answer differs from a full scan");
      }
    }
  }

  struct RepairPrices {
    std::vector<double> d_added_x;
    std::vector<double> d_x_added;  // Asymmetric policies only.
  };

  // A repair chunk's gather and pricing, first and apart from its steps so
  // the CPU overlaps the rows' table lookups: sets *ids_out to the alive
  // clusters of active[begin, end) (the merged pair died in Merge) and
  // prices each x at dist(added, x) and, for an asymmetric policy,
  // dist(x, added); +inf for a ripe merge.
  void PriceAgainstAdded(uint32_t added, const double* table, size_t begin,
                         size_t end, std::vector<uint32_t>* ids_out,
                         RepairPrices* prices) const {
    const std::vector<uint32_t>& active = active_.active();
    ids_out->resize(end - begin);
    prices->d_added_x.resize(end - begin);
    prices->d_x_added.resize(Policy::kAsymmetric ? end - begin : 0);
    uint32_t* ids = ids_out->data();
    size_t count = 0;
    for (size_t t = begin; t < end; ++t) {
      // Branch-free; only the merged pair, at most, is dead here.
      const uint32_t x = active[t];
      ids[count] = x;
      count += active_.Alive(x) ? 1 : 0;
    }
    ids_out->resize(count);
    double* d_added_x = prices->d_added_x.data();
    if (added == kNoCluster) {
      std::fill(d_added_x, d_added_x + count, kInfDist);
      std::fill(prices->d_x_added.begin(), prices->d_x_added.end(),
                kInfDist);
      return;
    }
    const size_t size_a = size_[added];
    const double cost_a = cost_[added];
    for (size_t i = 0; i < count; ++i) {
      const uint32_t x = ids[i];
      const double d_union = kernels_.TableUnionCost(table, Row(x));
      d_added_x[i] = policy_.Distance(size_a, size_[x], size_a + size_[x],
                                      cost_a, cost_[x], d_union);
      if constexpr (Policy::kAsymmetric) {
        prices->d_x_added[i] = policy_.Distance(
            size_[x], size_a, size_t{size_[x]} + size_a, cost_[x], cost_a,
            d_union);
      }
    }
  }

  // Algorithm 2: shrinks a ripe cluster to exactly k records; ejected
  // records are returned (they re-enter the pool as singletons). Each pass
  // gets every leave-one-out closure from one prefix/suffix join sweep —
  // O(len·r) per ejection instead of O(len²·r).
  std::vector<uint32_t> ShrinkToK(uint32_t id) {
    PhaseSpan span(tracer_, "agglomerative/shrink");
    std::vector<uint32_t> ejected;
    ClusterData& c = clusters_[id];
    while (c.members.size() > k_) {
      const size_t len = c.members.size();
      LeaveOneOutClosures(dataset_, scheme_, c.members, &shrink_rows_);
      shrink_costs_.resize(len);
      loss_.RecordCostMany(shrink_rows_.data(), len, shrink_costs_.data());
      size_t eject_pos = 0;
      double best_di = -kInfDist;
      for (size_t pos = 0; pos < len; ++pos) {
        // d(Ŝ ∖ {R̂_pos}); dist(Ŝ, Ŝ ∖ {R̂_pos}) has union Ŝ itself.
        const double d_minus = shrink_costs_[pos];
        const double di =
            policy_.Distance(len, len - 1, len, cost_[id], d_minus, cost_[id]);
        if (di > best_di) {
          best_di = di;
          eject_pos = pos;
        }
      }
      ejected.push_back(c.members[eject_pos]);
      c.members.erase(c.members.begin() +
                      static_cast<ptrdiff_t>(eject_pos));
      size_[id] = static_cast<uint32_t>(c.members.size());
      SetClosure(id, store_.Intern(shrink_rows_.data() +
                                   eject_pos * num_attrs_));
    }
    return ejected;
  }

  uint32_t NewSingleton(uint32_t row) {
    const uint32_t id = NewCluster({row});
    SetClosure(id, store_.Intern(SingletonRow(row)));
    return id;
  }

  Status MainLoop() {
    if (Stopped()) return Status::OK();  // Init was interrupted.
    while (active_.active().size() > 1) {
      if (CheckPoint("agglomerative/merge")) return Status::OK();
      KANON_FAILPOINT("agglomerative.closure");
      // The last repair pass (or the init) folded every alive cluster's
      // key; invariant A makes the smallest a globally closest pair.
      const MergeCandidate top = active_.Top();
      KANON_CHECK(active_.Alive(top.a) && active_.Alive(top.b),
                  "the next merge must join two alive clusters");
      if (options_.check_exact_merges) CheckSmallestKey(top);
      if (merge_cost_ != nullptr) merge_cost_->Observe(top.dist);
      const uint32_t merged = Merge(top.a, top.b);
      if (size_[merged] >= k_) {
        if (options_.modified && size_[merged] > k_) {
          const std::vector<uint32_t> ejected = ShrinkToK(merged);
          final_.push_back(merged);
          RepairAndMaybeAdd(kNoCluster);
          for (uint32_t row : ejected) {
            RepairAndMaybeAdd(NewSingleton(row));
          }
        } else {
          final_.push_back(merged);
          RepairAndMaybeAdd(kNoCluster);
        }
      } else {
        RepairAndMaybeAdd(merged);
      }
    }
    return Status::OK();
  }

  // Every record of `leftover` joins the final cluster minimizing
  // dist({R}, S) — line 10 of Algorithm 1, shared with the degraded
  // wind-down's straggler path.
  void AttachToNearestFinal(const std::vector<uint32_t>& leftover) {
    for (uint32_t row : leftover) {
      const ClosureStore::Id single = store_.Intern(SingletonRow(row));
      size_t best_pos = 0;
      double best_dist = kInfDist;
      for (size_t pos = 0; pos < final_.size(); ++pos) {
        const ClusterData& target = clusters_[final_[pos]];
        const double d_union =
            kernels_.UnionCost(SingletonRow(row), Row(final_[pos]));
        const double d = policy_.Distance(
            1, target.members.size(), target.members.size() + 1,
            store_.cost(single), cost_[final_[pos]], d_union);
        if (d < best_dist) {
          best_dist = d;
          best_pos = pos;
        }
      }
      ClusterData& target = clusters_[final_[best_pos]];
      target.members.push_back(row);
      std::sort(target.members.begin(), target.members.end());
      ++size_[final_[best_pos]];
      SetClosure(final_[best_pos], store_.InternJoin(target.closure, single));
    }
  }

  // Graceful wind-down after an interruption (deadline, cancel, budget):
  // records still in undersized clusters are pooled into one catch-all
  // cluster when they number at least k, and otherwise attached to their
  // nearest finished cluster — so the result is k-anonymous either way.
  void FinalizeDegraded() {
    std::vector<uint32_t> leftover = DrainAliveMembers();
    if (leftover.empty()) return;  // Interrupted after the last ripening.
    if (ctx_ != nullptr) {
      ctx_->NoteDegraded("agglomerative/merge");
      ctx_->AddRecordsSuppressed(leftover.size());
    }
    if (final_.empty() || leftover.size() >= k_) {
      // One catch-all cluster. When no cluster ripened yet the pool is the
      // whole dataset, and k <= n makes it valid.
      const uint32_t id = NewCluster(std::move(leftover));
      SetClosure(id,
                 store_.InternClosureOfRows(dataset_, clusters_[id].members));
      final_.push_back(id);
      return;
    }
    // Fewer than k stragglers: nearest-final attachment, as in the normal
    // leftover pass (one cheap scan per record).
    AttachToNearestFinal(leftover);
  }

  // Wind-down drain, where both the degraded and the regular leftover
  // passes start: the members of every still-alive cluster, ascending. Every
  // stop and the main loop's end follow a repair pass (or the init), so the
  // active list holds only alive clusters; the run ends here, so they stay
  // marked alive.
  std::vector<uint32_t> DrainAliveMembers() const {
    std::vector<uint32_t> rows;
    for (uint32_t id : active_.active()) {
      rows.insert(rows.end(), clusters_[id].members.begin(),
                  clusters_[id].members.end());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  void DistributeLeftover() {
    std::vector<uint32_t> leftover = DrainAliveMembers();
    if (leftover.empty()) return;
    KANON_CHECK(!final_.empty(),
                "no ripe cluster to absorb leftover records (k > n?)");
    AttachToNearestFinal(leftover);
  }

  const Dataset& dataset_;
  const PrecomputedLoss& loss_;
  const GeneralizationScheme& scheme_;
  const size_t k_;
  const AgglomerativeOptions& options_;
  const Policy policy_;
  RunContext* const ctx_;
  const size_t num_attrs_;
  // Telemetry sinks of the enclosing run (null when telemetry is off);
  // resolved once at construction, on the run's coordinating thread.
  Tracer* const tracer_;
  Histogram* const merge_cost_;

  // Raw columnar tables for the hot sweeps.
  LossKernels kernels_;
  ClosureStore store_;
  ActiveClusters active_;
  // What each cluster id is, grown together by GrowDense. clusters_: its
  // members and closure. The rest are dense arrays the sweeps read. rows_:
  // the closure's set ids at [id·r, id·r + r), written by SetClosure
  // whenever a closure is set, so the O(r) pair pricing reads one
  // contiguous row per cluster instead of chasing the store's record.
  // cost_: d(S), mirrored from the store. size_: |S|.
  std::vector<ClusterData> clusters_;
  std::vector<SetId> rows_;
  std::vector<double> cost_;
  std::vector<uint32_t> size_;
  // Joined-cost tables (LossKernels::FillJoinedCostTable): the repair
  // pass's, anchored at the added cluster, and a full rescan's.
  std::vector<double> added_table_;
  std::vector<double> anchor_table_;
  std::vector<uint32_t> final_;
  // ShrinkToK scratch, reused per pass: leave-one-out rows and their costs.
  std::vector<SetId> shrink_rows_;
  std::vector<double> shrink_costs_;
  // Per-chunk partials of the repair pass (with each chunk's alive
  // clusters), and their distances to the added cluster; reused so the
  // buffers persist.
  std::vector<RepairChunk> repair_chunks_;
  std::vector<RepairPrices> repair_prices_;
};

}  // namespace internal

}  // namespace kanon

#endif  // KANON_ALGO_AGGLOMERATIVE_ENGINE_H_
