#include "kanon/algo/core/merge_heap.h"

#include <algorithm>

namespace kanon {

void MergeHeap::ApplyRepairPass(uint32_t added,
                                const std::vector<RepairChunk>& chunks,
                                std::vector<uint32_t>* rescans) {
  NearList::Scan added_near;
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
      if (chunk.added_near.size > 1) {
        Offer(added, chunk.added_near.id[1], chunk.added_near.d[1]);
      }
      for (uint32_t i = 0; i < chunk.added_near.size; ++i) {
        added_near.Offer(chunk.added_near.id[i], chunk.added_near.d[i]);
      }
    }
    rescans->insert(rescans->end(), chunk.rescans.begin(),
                    chunk.rescans.end());
  }
  // The pass priced every cluster alive beside added, and the chunks'
  // keys hold the smallest of them.
  if (added != kNoCluster) near_[added].Fill(added_near, WatermarkNow());
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
