#ifndef KANON_ALGO_CORE_MERGE_HEAP_H_
#define KANON_ALGO_CORE_MERGE_HEAP_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "kanon/algo/core/cluster_set.h"
#include "kanon/algo/core/engine_counters.h"

namespace kanon {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Nearest-neighbor bookkeeping for one cluster x. Cluster contents are
/// immutable (merges create fresh clusters), so pair distances never change
/// and the engine can maintain, with O(1) repairs in the common case:
///
///   invariant A: c1 is alive and d1 = min over alive y≠x of dist(x, y)
///                (exact), whenever c1 != kNoCluster;
///   invariant B: when second_valid, every alive y ∉ {c1} has
///                dist(x, y) >= d2 (c2 itself may meanwhile be dead; d2
///                then still bounds everyone else).
///
/// A cluster that loses c1 promotes c2 when invariant B allows it, adopts
/// the freshly merged cluster when that is provably at least as close, and
/// only falls back to a full rescan otherwise. This keeps the engine exact
/// while avoiding the O(n³) blow-up of naive repair in the "one growing
/// cluster" regime that distance functions (10) and (11) induce.
struct CandidatePair {
  uint32_t c1 = kNoCluster;
  double d1 = kInfDist;
  uint32_t c2 = kNoCluster;
  double d2 = kInfDist;
  bool second_valid = true;
};

/// Offers candidate (y, d) to a two-best accumulator with the exact
/// comparisons of an ascending-id serial scan: strict improvement wins, ties
/// go to the smaller id. Used both inside chunk-local scans and to merge
/// chunk results in chunk order, so the combined two-best is byte-identical
/// to the serial scan at every thread count.
///
/// The unset slots are handled explicitly: an empty accumulator adopts any
/// candidate as its first-best, and a missing second-best adopts any
/// non-first candidate. (Historically those cases fell through the tie-break
/// comparisons only because kNoCluster compares greater than every real id
/// and the unset distances are +inf — correct by accident, and broken by any
/// future change to the sentinel. See the MergeHeap regression tests.)
void OfferToTwoBest(CandidatePair* c, uint32_t y, double d);

/// One scored merge candidate: dist(a, b) with the argument order the
/// asymmetric distances care about.
struct MergeCandidate {
  double dist;
  uint32_t a;
  uint32_t b;
};

/// One chunk's share of a repair pass (MergeHeap::RepairStep): everything a
/// step must not apply to shared state, held in the chunk's own slot until
/// MergeHeap::ApplyRepairPass folds the chunks in chunk order.
struct RepairChunk {
  /// Heap entries of the chunk's clusters' own repairs and offers.
  std::vector<MergeCandidate> pushes;
  /// Clusters whose candidates were wiped out, in scan order.
  std::vector<uint32_t> rescans;
  /// Two-best of dist(added, x) over the chunk's clusters x ...
  CandidatePair added_best;
  /// ... and the offers that improved its first-best, in scan order: the
  /// chunk's local prefix minima (dist, added, x).
  std::vector<MergeCandidate> added_prefix;

  void Clear() {
    pushes.clear();
    rescans.clear();
    added_best = CandidatePair();
    added_prefix.clear();
  }
};

/// The lazy merge heap shared by the agglomerative engines: per-cluster
/// two-best candidates (invariants A/B above), the stale-entry accounting,
/// and the threshold rebuild that keeps adversarial merge orders from
/// piling up dead entries. Pop order and results are byte-identical to a
/// heap without rebuilds; only occupancy changes.
class MergeHeap {
 public:
  /// `clusters` supplies aliveness and the active list; not owned.
  /// `aggressive_rebuild` is the testing hook that checks for a rebuild on
  /// every stale entry instead of waiting for the half-stale threshold.
  /// `counters` (optional, not owned) receives heap_rebuilds.
  MergeHeap(const ClusterSet* clusters, bool aggressive_rebuild,
            EngineCounters* counters)
      : clusters_(clusters),
        aggressive_rebuild_(aggressive_rebuild),
        counters_(counters) {}

  MergeHeap(const MergeHeap&) = delete;
  MergeHeap& operator=(const MergeHeap&) = delete;

  /// Grows the candidate/refcount arrays to cover cluster ids < n.
  void EnsureSize(size_t n) {
    if (cands_.size() < n) {
      cands_.resize(std::max(n, cands_.size() * 2 + 1));
      entry_refs_.resize(cands_.size(), 0);
    }
  }

  /// Candidate slot of cluster x. Chunk workers of the all-pairs scan write
  /// disjoint slots directly; everything else goes through Offer/Repair.
  CandidatePair& candidate(uint32_t x) {
    KANON_DCHECK(x < cands_.size());
    return cands_[x];
  }
  const CandidatePair& candidate(uint32_t x) const {
    KANON_DCHECK(x < cands_.size());
    return cands_[x];
  }

  void ResetCandidate(uint32_t x) {
    cands_[x] = CandidatePair();
    entry_refs_[x] = 0;
  }

  /// Pushes x's current first-best as a heap entry (no-op when unset).
  /// The tail of a full rescan.
  void PushCandidate(uint32_t x) {
    if (cands_[x].c1 != kNoCluster) {
      PushEntry(cands_[x].d1, x, cands_[x].c1);
    }
  }

  /// Offers alive candidate (y, d) to x's two-best, pushing a heap entry on
  /// a first-best improvement.
  void Offer(uint32_t x, uint32_t y, double d) {
    if (OfferToSlot(&cands_[x], y, d)) PushEntry(d, x, y);
  }

  /// One cluster's step of the repair pass that follows a merge; chunks of
  /// a sweep over the active list run it concurrently. It fixes x after the
  /// deaths of the just-merged pair and, when `added` (the freshly created
  /// cluster, kNoCluster for a ripe merge) is set, offers added to x at
  /// d_x_added and x to the chunk's view of added at d_added_x. It writes
  /// only x's own candidate slot and `chunk`; heap entries and rescans wait
  /// in `chunk` for ApplyRepairPass.
  void RepairStep(uint32_t x, uint32_t added, double d_added_x,
                  double d_x_added, RepairChunk* chunk);

  /// Applies a repair pass's chunks in chunk order: pushes their entries,
  /// rebuilds added's two-best from each chunk's prefix minima and second
  /// best, and appends the clusters that need a full rescan to `rescans` in
  /// active order. The heap then holds exactly the entries, and every
  /// candidate slot the values, of one serial Offer/Repair scan over the
  /// active list (docs/parallelism.md, rule 3).
  void ApplyRepairPass(uint32_t added, const std::vector<RepairChunk>& chunks,
                       std::vector<uint32_t>* rescans);

  /// Every in-heap entry referencing a deactivated cluster just went stale;
  /// the engine reports each death so the rebuild threshold stays exact.
  void NoteDeactivated(uint32_t c) { stale_ += entry_refs_[c]; }

  /// Dead-pair entries are only discarded lazily on pop, so adversarial
  /// merge orders (one growing cluster re-offered to everyone each round)
  /// can pile them up without bound. Once the stale-reference counter says
  /// at least half the heap is provably dead, rebuild it from the exact
  /// per-cluster candidates: every alive cluster re-contributes its one
  /// invariant-A entry. Purely an occupancy change — pop order and results
  /// are untouched.
  void MaybeRebuild();

  bool empty() const { return heap_.empty(); }

  /// Pops the top entry, maintaining the stale accounting. The caller skips
  /// entries whose endpoints died (lazy deletion); invariant A guarantees
  /// the first fully-alive pop is a globally closest pair.
  MergeCandidate PopTop();

  size_t rebuilds() const { return rebuilds_; }

 private:
  struct EntryGreater {
    bool operator()(const MergeCandidate& x, const MergeCandidate& y) const {
      if (x.dist != y.dist) return x.dist > y.dist;
      if (x.a != y.a) return x.a > y.a;
      return x.b > y.b;
    }
  };

  // Offer's update of one candidate slot; true when y became the first-best
  // (the caller owes a heap entry).
  static bool OfferToSlot(CandidatePair* c, uint32_t y, double d);

  // Every heap mutation goes through PushEntry/PopTop so the stale-entry
  // accounting stays exact: entry_refs_[c] counts in-heap entries
  // referencing c, stale_ counts in-heap references to dead clusters (each
  // stale entry contributes one or two, so stale_ is between the
  // stale-entry count and twice it).
  void PushEntry(double dist, uint32_t a, uint32_t b) {
    heap_.push(MergeCandidate{dist, a, b});
    ++entry_refs_[a];
    ++entry_refs_[b];
  }

  // The stale-entry heap rebuild waits for at least this many entries, so
  // small runs never churn.
  static constexpr size_t kRebuildMinSize = 64;

  const ClusterSet* const clusters_;
  const bool aggressive_rebuild_;
  EngineCounters* const counters_;

  std::vector<CandidatePair> cands_;
  std::priority_queue<MergeCandidate, std::vector<MergeCandidate>,
                      EntryGreater>
      heap_;
  std::vector<uint32_t> entry_refs_;  // In-heap entries per cluster id.
  size_t stale_ = 0;                  // In-heap references to dead clusters.
  size_t rebuilds_ = 0;
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_MERGE_HEAP_H_
