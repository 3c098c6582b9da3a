#ifndef KANON_ALGO_AGGLOMERATIVE_ENGINE_H_
#define KANON_ALGO_AGGLOMERATIVE_ENGINE_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/core/closure_store.h"
#include "kanon/algo/core/cluster_set.h"
#include "kanon/algo/core/merge_heap.h"
#include "kanon/algo/policy.h"
#include "kanon/common/check.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/parallel.h"
#include "kanon/loss/kernels.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"

// The agglomerative engine (docs/policy_engine.md): Algorithm 1/2 on the
// shared clustering core, with the merge rule supplied by a ClusterPolicy
// as an inlinable Distance member instead of the runtime EvalDistance
// switch. Internal to agglomerative.cc, which instantiates it once per
// built-in policy behind AgglomerativeCluster's one dispatch.

namespace kanon {

namespace internal {

// The basic and modified variants of Algorithm 1, rewritten on the shared
// clustering core: ClusterSet owns the alive/dead bookkeeping, ClosureStore
// hash-conses every cluster closure (and memoizes its cost), and MergeHeap
// carries the two-best candidates with the stale-entry heap maintenance.
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
        heap_(&clusters_, options.aggressive_heap_rebuild, options.counters) {}

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
      out.clusters.push_back(std::move(clusters_.cluster(id).members));
    }
    return out;
  }

 private:
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
    const ClusterData& ca = clusters_.cluster(a);
    const ClusterData& cb = clusters_.cluster(b);
    return policy_.Distance(ca.members.size(), cb.members.size(),
                            ca.members.size() + cb.members.size(), ca.cost,
                            cb.cost, d_union);
  }

  double Dist(uint32_t a, uint32_t b) const {
    return DistFromUnionCost(a, b, UnionCost(a, b));
  }

  // Gives cluster id the stored closure `closure`: mirrors its memoized
  // cost into the cluster and copies its set ids into the cluster's row.
  void SetClosure(uint32_t id, ClosureStore::Id closure) {
    ClusterData& c = clusters_.cluster(id);
    c.closure = closure;
    c.cost = store_.cost(closure);
    const size_t end = (static_cast<size_t>(id) + 1) * num_attrs_;
    if (rows_.size() < end) rows_.resize(std::max(end, 2 * rows_.size()));
    const SetId* row = store_.row(closure);
    std::copy(row, row + num_attrs_,
              rows_.begin() + static_cast<ptrdiff_t>(end - num_attrs_));
  }

  // Exact two-best of x over every active cluster, O(active · r), spread
  // over the worker threads: chunk-local two-bests merged in chunk order
  // reproduce the serial ascending scan exactly.
  CandidatePair ComputeTwoBest(uint32_t x) const {
    const size_t m = clusters_.active().size();
    std::vector<CandidatePair> parts(
        ParallelChunkCount(m, kAgglomerativeCheapSweepGrain));
    ParallelChunks(
        m, options_.num_threads, nullptr, "agglomerative/rescan",
        [&](size_t chunk, size_t begin, size_t end) {
          CandidatePair local;
          for (size_t t = begin; t < end; ++t) {
            const uint32_t y = clusters_.active()[t];
            if (y == x || !clusters_.Alive(y)) continue;
            OfferToTwoBest(&local, y, Dist(x, y));
          }
          parts[chunk] = local;
        },
        kAgglomerativeCheapSweepGrain);
    CandidatePair c;
    for (const CandidatePair& p : parts) {
      OfferToTwoBest(&c, p.c1, p.d1);
      OfferToTwoBest(&c, p.c2, p.d2);
    }
    c.second_valid = true;
    return c;
  }

  // Recomputes x's two-best over every active cluster.
  void FullRescan(uint32_t x) {
    PhaseSpan span(tracer_, "agglomerative/rescan");
    if (options_.counters != nullptr) ++options_.counters->rescans;
    CountChunks(clusters_.active().size(), kAgglomerativeCheapSweepGrain);
    heap_.candidate(x) = ComputeTwoBest(x);
    heap_.PushCandidate(x);
  }

  // Exhaustively checks that `dist` is the minimum over all alive pairs.
  void VerifyGlobalMinimum(double dist) const {
    for (uint32_t a : clusters_.active()) {
      if (!clusters_.Alive(a)) continue;
      for (uint32_t b : clusters_.active()) {
        if (a == b || !clusters_.Alive(b)) continue;
        KANON_CHECK(Dist(a, b) >= dist - 1e-12,
                    "engine merged a non-minimal pair");
      }
    }
  }

  Status InitSingletons() {
    const size_t n = dataset_.num_rows();
    clusters_.Reserve(2 * n);
    for (uint32_t i = 0; i < n; ++i) {
      ClusterData single;
      single.members = {i};
      clusters_.Activate(clusters_.Add(std::move(single)));
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
        /*done=*/nullptr, kAgglomerativeCheapSweepGrain);
    // A stop here leaves the closures unset; the degraded wind-down pools
    // records by membership only, so that is safe.
    if (!closures.completed) return Status::OK();
    {
      PhaseSpan intern_span(tracer_, "agglomerative/closure-intern");
      intern_span.set_items(n);
      rows_.reserve(2 * n * num_attrs_);
      for (uint32_t i = 0; i < n; ++i) {
        SetClosure(i, store_.Intern(raw.data() + i * num_attrs_));
      }
    }
    raw.clear();
    raw.shrink_to_fit();

    heap_.EnsureSize(n);
    // The all-pairs two-best scan is the O(n²·r) part of setup; it honors
    // the same controls as the merge loop so tight deadlines bail early.
    // Heap pushes happen after the sweep, on one thread, in index order.
    //
    // Every cluster is still a singleton here, so d(A ∪ B) is the pairwise
    // closure cost and one columnar PairCostSweep per row replaces n
    // closure joins. The two-best is then selected by offering distances
    // in ascending y — exactly the order ComputeTwoBest scans the active
    // set during init — so the chosen candidates are identical.
    CountChunks(n, 1);
    std::vector<Status> errors(ParallelChunkCount(n));
    const SweepStatus scan = ParallelChunks(
        n, options_.num_threads, ctx_, "agglomerative/init",
        [&](size_t chunk, size_t begin, size_t end) {
          std::vector<double> pair(n);
          for (size_t i = begin; i < end; ++i) {
            if (failpoint::AnyArmed()) {
              Status s = failpoint::Check("agglomerative.closure");
              if (!s.ok()) {
                errors[chunk] = std::move(s);
                return;
              }
            }
            kernels_.PairCostSweep(static_cast<uint32_t>(i), pair.data());
            const double cost_i = clusters_.cluster(i).cost;
            CandidatePair c;
            for (size_t y = 0; y < n; ++y) {
              if (y == i) continue;
              const double d = policy_.Distance(
                  1, 1, 2, cost_i, clusters_.cluster(y).cost, pair[y]);
              OfferToTwoBest(&c, static_cast<uint32_t>(y), d);
            }
            c.second_valid = true;
            heap_.candidate(static_cast<uint32_t>(i)) = c;
          }
        });
    for (Status& s : errors) {
      if (!s.ok()) return std::move(s);
    }
    if (!scan.completed) return Status::OK();
    for (uint32_t i = 0; i < n; ++i) {
      heap_.PushCandidate(i);
    }
    return Status::OK();
  }

  void Deactivate(uint32_t c) {
    clusters_.Deactivate(c);
    heap_.NoteDeactivated(c);
  }

  uint32_t NewCluster(ClusterData data) {
    const uint32_t id = clusters_.Add(std::move(data));
    heap_.EnsureSize(id + 1);
    heap_.ResetCandidate(id);
    return id;
  }

  uint32_t Merge(uint32_t a, uint32_t b) {
    ClusterData merged;
    merged.members = clusters_.cluster(a).members;
    merged.members.insert(merged.members.end(),
                          clusters_.cluster(b).members.begin(),
                          clusters_.cluster(b).members.end());
    std::sort(merged.members.begin(), merged.members.end());
    const ClosureStore::Id closure = store_.InternJoin(
        clusters_.cluster(a).closure, clusters_.cluster(b).closure);
    Deactivate(a);
    Deactivate(b);
    if (options_.counters != nullptr) ++options_.counters->merges;
    const uint32_t id = NewCluster(std::move(merged));
    SetClosure(id, closure);
    return id;
  }

  // One pass over the active set after a merge. When `added` is not
  // kNoCluster it is the freshly created cluster: its two-best is built, it
  // is offered to everyone, and it joins the active set. Clusters whose
  // candidates were wiped out are rescanned at the end (rare). Each chunk
  // prices its clusters against `added` and runs their repair steps, which
  // touch only each cluster's own slot; ApplyRepairPass then folds the
  // chunks in order, so the outcome matches a serial pass exactly.
  void RepairAndMaybeAdd(uint32_t added) {
    PhaseSpan span(tracer_, "agglomerative/repair");
    // The policy decides at compile time whether the merge rule is
    // direction-sensitive; symmetric policies never price the reverse pair.
    constexpr bool asymmetric = Policy::kAsymmetric;
    const std::vector<uint32_t>& active = clusters_.active();
    const size_t m = active.size();
    repair_chunks_.resize(ParallelChunkCount(m, kAgglomerativeCheapSweepGrain));
    CountChunks(m, kAgglomerativeCheapSweepGrain);
    ParallelChunks(
        m, options_.num_threads, nullptr, "agglomerative/repair",
        [&](size_t chunk, size_t begin, size_t end) {
          // Built in a local (reusing the slot's buffers) and stored once,
          // so chunks never write next to each other's slots mid-scan.
          RepairChunk local = std::move(repair_chunks_[chunk]);
          local.Clear();
          for (size_t t = begin; t < end; ++t) {
            const uint32_t x = active[t];
            if (!clusters_.Alive(x)) continue;
            double d_added_x = kInfDist;
            double d_x_added = kInfDist;
            if (added != kNoCluster) {
              const double d_union = UnionCost(added, x);
              d_added_x = DistFromUnionCost(added, x, d_union);
              d_x_added = asymmetric ? DistFromUnionCost(x, added, d_union)
                                     : d_added_x;
            }
            heap_.RepairStep(x, added, d_added_x, d_x_added, &local);
          }
          repair_chunks_[chunk] = std::move(local);
        },
        kAgglomerativeCheapSweepGrain);
    std::vector<uint32_t> needs_rescan;
    heap_.ApplyRepairPass(added, repair_chunks_, &needs_rescan);
    if (added != kNoCluster) {
      clusters_.Activate(added);
    }
    clusters_.MaybeCompactActive();
    for (uint32_t x : needs_rescan) {
      if (clusters_.Alive(x)) FullRescan(x);
    }
  }

  // Algorithm 2: shrinks a ripe cluster to exactly k records; ejected
  // records are returned (they re-enter the pool as singletons). Each pass
  // gets every leave-one-out closure from one prefix/suffix join sweep —
  // O(len·r) per ejection instead of O(len²·r).
  std::vector<uint32_t> ShrinkToK(uint32_t id) {
    PhaseSpan span(tracer_, "agglomerative/shrink");
    std::vector<uint32_t> ejected;
    ClusterData& c = clusters_.cluster(id);
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
            policy_.Distance(len, len - 1, len, c.cost, d_minus, c.cost);
        if (di > best_di) {
          best_di = di;
          eject_pos = pos;
        }
      }
      ejected.push_back(c.members[eject_pos]);
      c.members.erase(c.members.begin() +
                      static_cast<ptrdiff_t>(eject_pos));
      SetClosure(id, store_.Intern(shrink_rows_.data() +
                                   eject_pos * num_attrs_));
    }
    return ejected;
  }

  uint32_t NewSingleton(uint32_t row) {
    ClusterData single;
    single.members = {row};
    const uint32_t id = NewCluster(std::move(single));
    SetClosure(id, store_.Intern(SingletonRow(row)));
    return id;
  }

  Status MainLoop() {
    if (Stopped()) return Status::OK();  // Init was interrupted.
    while (clusters_.num_active() > 1) {
      if (CheckPoint("agglomerative/merge")) return Status::OK();
      KANON_FAILPOINT("agglomerative.closure");
      heap_.MaybeRebuild();
      KANON_CHECK(!heap_.empty(), "active clusters must have heap entries");
      const MergeCandidate entry = heap_.PopTop();
      // Distances are immutable per pair, so an entry is valid iff both
      // endpoints are alive; invariant A guarantees the first valid pop is
      // a globally closest pair.
      if (!clusters_.Alive(entry.a) || !clusters_.Alive(entry.b)) continue;
      if (options_.check_exact_merges) {
        VerifyGlobalMinimum(entry.dist);
      }
      if (merge_cost_ != nullptr) merge_cost_->Observe(entry.dist);
      const uint32_t merged = Merge(entry.a, entry.b);
      if (clusters_.cluster(merged).members.size() >= k_) {
        if (options_.modified &&
            clusters_.cluster(merged).members.size() > k_) {
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
        const ClusterData& target = clusters_.cluster(final_[pos]);
        const double d_union =
            kernels_.UnionCost(SingletonRow(row), Row(final_[pos]));
        const double d = policy_.Distance(
            1, target.members.size(), target.members.size() + 1,
            store_.cost(single), target.cost, d_union);
        if (d < best_dist) {
          best_dist = d;
          best_pos = pos;
        }
      }
      ClusterData& target = clusters_.cluster(final_[best_pos]);
      target.members.push_back(row);
      std::sort(target.members.begin(), target.members.end());
      SetClosure(final_[best_pos], store_.InternJoin(target.closure, single));
    }
  }

  // Graceful wind-down after an interruption (deadline, cancel, budget):
  // records still in undersized clusters are pooled into one catch-all
  // cluster when they number at least k, and otherwise attached to their
  // nearest finished cluster — so the result is k-anonymous either way.
  void FinalizeDegraded() {
    std::vector<uint32_t> leftover = clusters_.DrainAliveMembers();
    if (leftover.empty()) return;  // Interrupted after the last ripening.
    if (ctx_ != nullptr) {
      ctx_->NoteDegraded("agglomerative/merge");
      ctx_->AddRecordsSuppressed(leftover.size());
    }
    if (final_.empty() || leftover.size() >= k_) {
      // One catch-all cluster. When no cluster ripened yet the pool is the
      // whole dataset, and k <= n makes it valid.
      ClusterData pool;
      pool.members = std::move(leftover);
      const uint32_t id = NewCluster(std::move(pool));
      SetClosure(id, store_.InternClosureOfRows(dataset_,
                                                clusters_.cluster(id).members));
      final_.push_back(id);
      return;
    }
    // Fewer than k stragglers: nearest-final attachment, as in the normal
    // leftover pass (one cheap scan per record).
    AttachToNearestFinal(leftover);
  }

  void DistributeLeftover() {
    std::vector<uint32_t> leftover = clusters_.DrainAliveMembers();
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

  // Raw columnar tables for the hot sweeps; constructing it primes the
  // dataset's attribute-major mirror on this (coordinating) thread.
  LossKernels kernels_;
  ClosureStore store_;
  ClusterSet clusters_;
  MergeHeap heap_;
  // Flat closure rows: cluster id's closure set ids at [id·r, id·r + r),
  // written by SetClosure whenever a closure is set, so the O(r) pair
  // pricing of the sweeps reads one contiguous row per cluster instead of
  // chasing the store's record.
  std::vector<SetId> rows_;
  std::vector<uint32_t> final_;
  // ShrinkToK scratch, reused per pass: leave-one-out rows and their costs.
  std::vector<SetId> shrink_rows_;
  std::vector<double> shrink_costs_;
  // Per-chunk partials of the repair pass, reused so their buffers persist.
  std::vector<RepairChunk> repair_chunks_;
};

}  // namespace internal

}  // namespace kanon

#endif  // KANON_ALGO_AGGLOMERATIVE_ENGINE_H_
