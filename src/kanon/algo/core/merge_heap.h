#ifndef KANON_ALGO_CORE_MERGE_HEAP_H_
#define KANON_ALGO_CORE_MERGE_HEAP_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "kanon/algo/core/cluster_set.h"

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
inline void OfferToTwoBest(CandidatePair* c, uint32_t y, double d) {
  if (y == kNoCluster || y == c->c1 || y == c->c2) return;
  if (c->c1 == kNoCluster) {
    // Empty accumulator: y becomes the first-best outright (the second slot
    // stays unset — there is nothing to displace into it).
    c->c1 = y;
    c->d1 = d;
    return;
  }
  if (d < c->d1 || (d == c->d1 && y < c->c1)) {
    c->c2 = c->c1;
    c->d2 = c->d1;
    c->c1 = y;
    c->d1 = d;
  } else if (c->c2 == kNoCluster || d < c->d2 ||
             (d == c->d2 && y < c->c2)) {
    c->c2 = y;
    c->d2 = d;
  }
}

/// The (dist, id) order of every candidate scan: by distance, ties to the
/// smaller id. OfferToTwoBest keeps the two smallest keys in this order, so
/// its result does not depend on the order of the offers.
inline bool KeyLess(double da, uint32_t a, double db, uint32_t b) {
  return da < db || (da == db && a < b);
}

/// The N smallest (dist, id) keys offered, ascending; ids must be distinct.
/// Like OfferToTwoBest the result is independent of the offer order, so
/// chunk-local lists merged in any order give the serial scan's list; its
/// first two keys are that scan's two-best.
template <size_t N>
struct NearestKeys {
  double d[N] = {};
  uint32_t id[N] = {};
  uint32_t size = 0;

  bool full() const { return size == N; }

  /// Offers (y, dd); true when it was kept. A full list rejects a key that
  /// is not below its last one with one comparison.
  bool Offer(uint32_t y, double dd) {
    if (size == N && !KeyLess(dd, y, d[N - 1], id[N - 1])) return false;
    size_t pos = size < N ? size++ : N - 1;
    for (; pos > 0 && KeyLess(dd, y, d[pos - 1], id[pos - 1]); --pos) {
      d[pos] = d[pos - 1];
      id[pos] = id[pos - 1];
    }
    d[pos] = dd;
    id[pos] = y;
    return true;
  }

  /// The first two keys as a two-best; an exact scan's, so second_valid.
  CandidatePair TwoBest() const {
    CandidatePair c;
    if (size > 0) {
      c.c1 = id[0];
      c.d1 = d[0];
    }
    if (size > 1) {
      c.c2 = id[1];
      c.d2 = d[1];
    }
    return c;
  }
};

/// A cluster's near-list: the kSize smallest keys of one exact scan over
/// the clusters alive at fill time, the bound B (the next key, or +inf when
/// the scan had no more), and the watermark W (the cluster count at fill
/// time). Pair distances never change, so from then on every alive y < W
/// that is not listed has key (dist(x, y), y) >= B, and a cluster that needs
/// a full rescan can often be answered from its list plus the clusters
/// created since W (MergeHeap::ServeRescan). A default list is empty with
/// B = -inf: it answers nothing until a scan fills it.
struct NearList {
  static constexpr size_t kSize = 4;
  /// What a scan collects to fill a list: kSize keys and the bound.
  using Scan = NearestKeys<kSize + 1>;

  double d[kSize] = {};
  uint32_t id[kSize] = {};
  uint32_t size = 0;
  uint32_t watermark = 0;
  double bound_d = -kInfDist;
  uint32_t bound_id = 0;

  bool unbounded() const { return bound_id == kNoCluster; }

  /// Fills the list from `scan`, which holds the smallest keys below
  /// (rest_d, rest_id) of every cluster alive below `fill_watermark`; an
  /// exact scan has no such limit. A full scan's last key becomes the bound,
  /// else the limit does.
  void Fill(const Scan& scan, uint32_t fill_watermark,
            double rest_d = kInfDist, uint32_t rest_id = kNoCluster) {
    size = std::min<uint32_t>(scan.size, kSize);
    std::copy(scan.d, scan.d + size, d);
    std::copy(scan.id, scan.id + size, id);
    bound_d = scan.full() ? scan.d[kSize] : rest_d;
    bound_id = scan.full() ? scan.id[kSize] : rest_id;
    watermark = fill_watermark;
  }
};

/// One scored merge candidate: dist(a, b) with the argument order the
/// asymmetric distances care about.
struct MergeCandidate {
  double dist;
  uint32_t a;
  uint32_t b;
};

/// No merge: the smallest key of a set of clusters none of which has a pair.
inline constexpr MergeCandidate kNoMerge{kInfDist, kNoCluster, kNoCluster};

/// Keeps in *top the smaller of it and `key` in (dist, a) order. One key per
/// cluster a, so (dist, a) decides; kNoMerge loses to every real key.
inline void FoldKey(MergeCandidate* top, const MergeCandidate& key) {
  if (KeyLess(key.dist, key.a, top->dist, top->a)) *top = key;
}

/// One chunk's share of a repair pass (MergeHeap::RepairStep): everything a
/// step must not apply to shared state, held in the chunk's own slot until
/// MergeHeap::ApplyRepairPass folds the chunks in chunk order.
struct RepairChunk {
  /// The smallest key (d1, x, c1) of the chunk's clusters x whose first-best
  /// is settled by the pass (alive, or the added cluster).
  MergeCandidate top = kNoMerge;
  /// Clusters whose candidates were wiped out, in scan order.
  std::vector<uint32_t> rescans;
  /// The smallest keys (dist(added, x), x) over the chunk's clusters x: the
  /// chunk's share of added's two-best and near-list.
  NearList::Scan added_near;

  void Clear() {
    top = kNoMerge;
    rescans.clear();
    added_near = NearList::Scan();
  }
};

/// The merge candidates shared by the agglomerative engines: per-cluster
/// two-best candidates (invariants A/B above) and near-lists, and the next
/// merge, Top(): the smallest key (d1(x), x, c1(x)) over the alive
/// clusters x. Every repair pass visits every alive cluster, so it folds the
/// keys as it goes. (The class name predates that: it holds no heap.)
class MergeHeap {
 public:
  /// `clusters` supplies aliveness and the active list; not owned.
  explicit MergeHeap(const ClusterSet* clusters) : clusters_(clusters) {}

  MergeHeap(const MergeHeap&) = delete;
  MergeHeap& operator=(const MergeHeap&) = delete;

  /// Grows the candidate and near-list arrays to cover ids < n.
  void EnsureSize(size_t n) {
    if (cands_.size() < n) {
      cands_.resize(std::max(n, cands_.size() * 2 + 1));
      near_.resize(cands_.size());
    }
  }

  /// Candidate slot of cluster x. The engine writes it only through the
  /// operations below; tests also set it directly.
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
    near_[x] = NearList();
  }

  /// The next merge: the smallest key folded since the last repair pass
  /// began (kNoMerge when none was).
  const MergeCandidate& Top() const { return top_; }

  /// Folds x's current key (d1, x, c1) into Top(); no-op when x has no pair.
  void FoldCandidate(uint32_t x) {
    if (cands_[x].c1 != kNoCluster) {
      FoldKey(&top_, MergeCandidate{cands_[x].d1, x, cands_[x].c1});
    }
  }

  /// Sets x's two-best and near-list from `scan`, an exact scan over every
  /// cluster alive below `watermark`, and folds nothing: the all-pairs
  /// scan's chunk workers call it on disjoint slots.
  void SetNearest(uint32_t x, const NearList::Scan& scan,
                  uint32_t watermark) {
    cands_[x] = scan.TwoBest();
    near_[x].Fill(scan, watermark);
  }

  /// The tail of a full rescan of x over every cluster alive now: its
  /// two-best (and key) and its near-list come from `scan`.
  void SetScanned(uint32_t x, const NearList::Scan& scan) {
    SetNearest(x, scan, WatermarkNow());
    FoldCandidate(x);
  }

  /// Answers a full rescan of x from its near-list when the list can: the
  /// listed clusters still alive and the ones created since the watermark
  /// (priced by dist(y) = dist(x, y)) that key below the bound. When two
  /// such keys remain, or the list had no bound, they are the two-best of
  /// an exact scan over every alive cluster: sets x's candidates, folds its
  /// key, refreshes the list and returns true. Otherwise changes nothing
  /// and returns false; the caller then runs the full scan.
  template <typename DistFn>
  bool ServeRescan(uint32_t x, const DistFn& dist) {
    NearList& list = near_[x];
    NearList::Scan found;
    for (uint32_t i = 0; i < list.size; ++i) {
      if (clusters_->Alive(list.id[i])) found.Offer(list.id[i], list.d[i]);
    }
    const std::vector<uint32_t>& active = clusters_->active();
    for (auto it = std::lower_bound(active.begin(), active.end(),
                                    list.watermark);
         it != active.end(); ++it) {
      const uint32_t y = *it;
      if (y == x || !clusters_->Alive(y)) continue;
      const double d = dist(y);
      if (KeyLess(d, y, list.bound_d, list.bound_id)) found.Offer(y, d);
    }
    if (found.size < 2 && !list.unbounded()) return false;
    cands_[x] = found.TwoBest();
    list.Fill(found, WatermarkNow(), list.bound_d, list.bound_id);
    FoldCandidate(x);
    return true;
  }

  /// One cluster's step of the repair pass that follows a merge; chunks of
  /// a sweep over the active list run it concurrently. It fixes x after the
  /// deaths of the just-merged pair and, when `added` (the freshly created
  /// cluster, kNoCluster for a ripe merge) is set, offers added to x at
  /// d_x_added and x to the chunk's view of added at d_added_x. It then
  /// folds x's key into the chunk's, unless x waits for a rescan. It writes
  /// only x's own candidate slot and `chunk`; the chunk's results wait for
  /// ApplyRepairPass. Near-lists are not touched.
  void RepairStep(uint32_t x, uint32_t added, double d_added_x,
                  double d_x_added, RepairChunk* chunk) {
    const CandidatePair& c = cands_[x];
    if (added != kNoCluster) {
      chunk->added_near.Offer(x, d_added_x);
      // The common case is provably a no-op for x: its nearest is intact
      // and added, the newest id, beats neither bound (a tie at d2 loses
      // on the id).
      if (d_x_added > c.d2 && clusters_->Alive(c.c1)) {
        FoldKey(&chunk->top, MergeCandidate{c.d1, x, c.c1});
        return;
      }
    }
    if (RepairCandidate(x, added, d_x_added, chunk) && c.c1 != kNoCluster) {
      FoldKey(&chunk->top, MergeCandidate{c.d1, x, c.c1});
    }
  }

  /// Applies a repair pass's chunks in chunk order: folds their keys into
  /// a fresh Top(), sets added's two-best and near-list from the chunks'
  /// keys and folds its key, and appends the clusters that need a full
  /// rescan to `rescans` in active order. Every candidate slot then holds
  /// the values of one serial scan over the active list, and Top() the
  /// smallest key of every alive cluster but those rescans, whose keys the
  /// rescans fold (docs/parallelism.md, rule 3).
  void ApplyRepairPass(uint32_t added, const std::vector<RepairChunk>& chunks,
                       std::vector<uint32_t>* rescans);

 private:
  // RepairStep's update of x's own two-best; false when x needs a rescan.
  // Otherwise x's first-best is alive, added, or unset (no other cluster).
  bool RepairCandidate(uint32_t x, uint32_t added, double d_x_added,
                       RepairChunk* chunk) {
    CandidatePair& c = cands_[x];
    if (c.c1 != kNoCluster && !clusters_->Alive(c.c1)) {
      if (added != kNoCluster && d_x_added <= c.d1) {
        // Everyone alive was at distance >= d1 before the merge, so the new
        // cluster is an exact new minimum. The second bound keeps holding.
        c.c1 = added;
        c.d1 = d_x_added;
        return true;
      }
      if (!clusters_->Alive(c.c2) || !c.second_valid) {
        chunk->rescans.push_back(x);
        return false;
      }
      // Invariant B: nothing alive beats d2, so c2 is the exact minimum.
      c.c1 = c.c2;
      c.d1 = c.d2;
      c.c2 = kNoCluster;
      c.d2 = kInfDist;
      c.second_valid = false;
    }
    // Nearest intact (a dead c2 stays as a bound) or just promoted.
    if (added != kNoCluster) OfferToSlot(&c, added, d_x_added);
    return true;
  }

  // RepairCandidate's offer of added to one candidate slot.
  static void OfferToSlot(CandidatePair* c, uint32_t y, double d) {
    if (y == c->c1 || y == c->c2) return;
    if (d < c->d1 || (d == c->d1 && y < c->c1)) {
      // The displaced c1 was the exact minimum over the other alive
      // clusters, so it is a correct second bound.
      c->c2 = c->c1;
      c->d2 = c->d1;
      c->second_valid = true;
      c->c1 = y;
      c->d1 = d;
    } else if (d < c->d2 || (d == c->d2 && y < c->c2)) {
      // Tightening the second bound keeps invariant B when it held (y is
      // accounted for explicitly, everyone else was >= old d2 > d).
      c->c2 = y;
      c->d2 = d;
    }
  }

  // Every id below the cluster count has been created, so a scan over the
  // clusters alive now covers them all.
  uint32_t WatermarkNow() const {
    return static_cast<uint32_t>(clusters_->size());
  }

  const ClusterSet* const clusters_;

  std::vector<CandidatePair> cands_;
  std::vector<NearList> near_;
  MergeCandidate top_ = kNoMerge;
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_MERGE_HEAP_H_
