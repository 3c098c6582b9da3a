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

/// One chunk's share of a repair pass (MergeHeap::RepairStep): everything a
/// step must not apply to shared state, held in the chunk's own slot until
/// MergeHeap::ApplyRepairPass folds the chunks in chunk order.
struct RepairChunk {
  /// Heap entries of the chunk's clusters' own repairs and offers.
  std::vector<MergeCandidate> pushes;
  /// Clusters whose candidates were wiped out, in scan order.
  std::vector<uint32_t> rescans;
  /// The smallest keys (dist(added, x), x) over the chunk's clusters x: its
  /// first two are the chunk's two-best of added, all of them seed added's
  /// near-list ...
  NearList::Scan added_near;
  /// ... and the offers that improved its first key, in scan order: the
  /// chunk's local prefix minima (dist, added, x).
  std::vector<MergeCandidate> added_prefix;

  void Clear() {
    pushes.clear();
    rescans.clear();
    added_near = NearList::Scan();
    added_prefix.clear();
  }
};

/// The lazy merge heap shared by the agglomerative engines: per-cluster
/// two-best candidates (invariants A/B above) and near-lists, the
/// stale-entry accounting, and the threshold rebuild that keeps adversarial
/// merge orders from piling up dead entries. Pop order and results are
/// byte-identical to a heap without rebuilds; only occupancy changes.
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

  /// Grows the candidate/near-list/refcount arrays to cover ids < n.
  void EnsureSize(size_t n) {
    if (cands_.size() < n) {
      cands_.resize(std::max(n, cands_.size() * 2 + 1));
      near_.resize(cands_.size());
      entry_refs_.resize(cands_.size(), 0);
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
    entry_refs_[x] = 0;
  }

  /// Pushes x's current first-best as a heap entry (no-op when unset).
  void PushCandidate(uint32_t x) {
    if (cands_[x].c1 != kNoCluster) {
      PushEntry(cands_[x].d1, x, cands_[x].c1);
    }
  }

  /// Sets x's two-best and near-list from `scan`, an exact scan over every
  /// cluster alive below `watermark`, and pushes nothing: the all-pairs
  /// scan's chunk workers call it on disjoint slots.
  void SetNearest(uint32_t x, const NearList::Scan& scan,
                  uint32_t watermark) {
    cands_[x] = scan.TwoBest();
    near_[x].Fill(scan, watermark);
  }

  /// The tail of a full rescan of x over every cluster alive now: its
  /// two-best (and entry) and its near-list come from `scan`.
  void SetScanned(uint32_t x, const NearList::Scan& scan) {
    SetNearest(x, scan, WatermarkNow());
    PushCandidate(x);
  }

  /// Answers a full rescan of x from its near-list when the list can: the
  /// listed clusters still alive and the ones created since the watermark
  /// (priced by dist(y) = dist(x, y)) that key below the bound. When two
  /// such keys remain, or the list had no bound, they are the two-best of
  /// an exact scan over every alive cluster: sets x's candidates, pushes
  /// its entry, refreshes the list and returns true. Otherwise changes
  /// nothing and returns false; the caller then runs the full scan.
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
    PushCandidate(x);
    return true;
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
  /// in `chunk` for ApplyRepairPass. Near-lists are not touched.
  void RepairStep(uint32_t x, uint32_t added, double d_added_x,
                  double d_x_added, RepairChunk* chunk) {
    if (added != kNoCluster) {
      // The chunk's local scan of added's offers, in ascending x: a key
      // that lands first improved the chunk's first-best (a prefix
      // minimum).
      NearList::Scan& near = chunk->added_near;
      if (near.Offer(x, d_added_x) && near.id[0] == x) {
        chunk->added_prefix.push_back(MergeCandidate{d_added_x, added, x});
      }
      // The common case is provably a no-op for x: its nearest is intact
      // and added, the newest id, beats neither bound (a tie at d2 loses
      // on the id).
      const CandidatePair& c = cands_[x];
      if (d_x_added > c.d2 && clusters_->Alive(c.c1)) return;
    }
    RepairCandidate(x, added, d_x_added, chunk);
  }

  /// Applies a repair pass's chunks in chunk order: pushes their entries,
  /// rebuilds added's two-best from each chunk's prefix minima and second
  /// best, fills added's near-list from the chunks' keys, and appends the
  /// clusters that need a full rescan to `rescans` in active order. The
  /// heap then holds exactly the entries, and every candidate slot the
  /// values, of one serial Offer/Repair scan over the active list
  /// (docs/parallelism.md, rule 3).
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

  // RepairStep's update of x's own two-best.
  void RepairCandidate(uint32_t x, uint32_t added, double d_x_added,
                       RepairChunk* chunk) {
    CandidatePair& c = cands_[x];
    if (c.c1 != kNoCluster && !clusters_->Alive(c.c1)) {
      if (added != kNoCluster && d_x_added <= c.d1) {
        // Everyone alive was at distance >= d1 before the merge, so the new
        // cluster is an exact new minimum. The second bound keeps holding.
        c.c1 = added;
        c.d1 = d_x_added;
        chunk->pushes.push_back(MergeCandidate{d_x_added, x, added});
        return;
      }
      if (!clusters_->Alive(c.c2) || !c.second_valid) {
        chunk->rescans.push_back(x);
        return;
      }
      // Invariant B: nothing alive beats d2, so c2 is the exact minimum.
      c.c1 = c.c2;
      c.d1 = c.d2;
      c.c2 = kNoCluster;
      c.d2 = kInfDist;
      c.second_valid = false;
      chunk->pushes.push_back(MergeCandidate{c.d1, x, c.c1});
    }
    // Nearest intact (a dead c2 stays as a bound) or just promoted.
    if (added != kNoCluster && OfferToSlot(&c, added, d_x_added)) {
      chunk->pushes.push_back(MergeCandidate{d_x_added, x, added});
    }
  }

  // Offer's update of one candidate slot; true when y became the first-best
  // (the caller owes a heap entry).
  static bool OfferToSlot(CandidatePair* c, uint32_t y, double d) {
    if (y == c->c1 || y == c->c2) return false;
    if (d < c->d1 || (d == c->d1 && y < c->c1)) {
      // The displaced c1 was the exact minimum over the other alive
      // clusters, so it is a correct second bound.
      c->c2 = c->c1;
      c->d2 = c->d1;
      c->second_valid = true;
      c->c1 = y;
      c->d1 = d;
      return true;
    }
    if (d < c->d2 || (d == c->d2 && y < c->c2)) {
      // Tightening the second bound keeps invariant B when it held (y is
      // accounted for explicitly, everyone else was >= old d2 > d).
      c->c2 = y;
      c->d2 = d;
    }
    return false;
  }

  // Every id below the cluster count has been created, so a scan over the
  // clusters alive now covers them all.
  uint32_t WatermarkNow() const {
    return static_cast<uint32_t>(clusters_->size());
  }

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
  std::vector<NearList> near_;
  std::priority_queue<MergeCandidate, std::vector<MergeCandidate>,
                      EntryGreater>
      heap_;
  std::vector<uint32_t> entry_refs_;  // In-heap entries per cluster id.
  size_t stale_ = 0;                  // In-heap references to dead clusters.
  size_t rebuilds_ = 0;
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_MERGE_HEAP_H_
