#include "kanon/algo/core/merge_heap.h"

#include <algorithm>

namespace kanon {

void OfferToTwoBest(CandidatePair* c, uint32_t y, double d) {
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

bool MergeHeap::OfferToSlot(CandidatePair* c, uint32_t y, double d) {
  if (y == c->c1 || y == c->c2) return false;
  if (d < c->d1 || (d == c->d1 && y < c->c1)) {
    // The displaced c1 was the exact minimum over the other alive clusters,
    // so it is a correct second bound.
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

void MergeHeap::RepairStep(uint32_t x, uint32_t added, double d_added_x,
                           double d_x_added, RepairChunk* chunk) {
  if (added != kNoCluster) {
    // The chunk's local scan of added's offers; OfferToTwoBest makes the
    // comparisons Offer makes, so its improvements are the prefix minima.
    const uint32_t before = chunk->added_best.c1;
    OfferToTwoBest(&chunk->added_best, x, d_added_x);
    if (chunk->added_best.c1 != before) {
      chunk->added_prefix.push_back(MergeCandidate{d_added_x, added, x});
    }
  }
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

void MergeHeap::ApplyRepairPass(uint32_t added,
                                const std::vector<RepairChunk>& chunks,
                                std::vector<uint32_t>* rescans) {
  for (const RepairChunk& chunk : chunks) {
    // Push order is free: EntryGreater totally orders (dist, a, b), so the
    // pop sequence depends only on the multiset of entries.
    for (const MergeCandidate& e : chunk.pushes) PushEntry(e.dist, e.a, e.b);
    if (added != kNoCluster) {
      // A serial scan pushes (added, x) exactly at the global prefix minima:
      // the local prefix minima that beat every earlier chunk. Offering them
      // in order, then the chunk's second best (which never beats its own
      // first), reproduces those pushes and leaves the global two-best.
      for (const MergeCandidate& e : chunk.added_prefix) {
        Offer(added, e.b, e.dist);
      }
      if (chunk.added_best.c2 != kNoCluster) {
        Offer(added, chunk.added_best.c2, chunk.added_best.d2);
      }
    }
    rescans->insert(rescans->end(), chunk.rescans.begin(),
                    chunk.rescans.end());
  }
}

void MergeHeap::MaybeRebuild() {
  const bool stale_heavy =
      aggressive_rebuild_
          ? stale_ > 0
          : heap_.size() >= kRebuildMinSize && stale_ > heap_.size();
  if (!stale_heavy) return;
  heap_ = {};
  std::fill(entry_refs_.begin(), entry_refs_.end(), 0);
  stale_ = 0;
  for (uint32_t x : clusters_->active()) {
    if (!clusters_->Alive(x)) continue;
    const CandidatePair& c = cands_[x];
    if (c.c1 != kNoCluster && clusters_->Alive(c.c1)) {
      PushEntry(c.d1, x, c.c1);
    }
  }
  ++rebuilds_;
  if (counters_ != nullptr) ++counters_->heap_rebuilds;
}

MergeCandidate MergeHeap::PopTop() {
  const MergeCandidate entry = heap_.top();
  heap_.pop();
  --entry_refs_[entry.a];
  --entry_refs_[entry.b];
  if (!clusters_->Alive(entry.a)) --stale_;
  if (!clusters_->Alive(entry.b)) --stale_;
  return entry;
}

}  // namespace kanon
