#include "kanon/algo/core/merge_heap.h"

namespace kanon {

void MergeHeap::ApplyRepairPass(uint32_t added,
                                const std::vector<RepairChunk>& chunks,
                                std::vector<uint32_t>* rescans) {
  top_ = kNoMerge;
  NearList::Scan added_near;
  for (const RepairChunk& chunk : chunks) {
    FoldKey(&top_, chunk.top);
    for (uint32_t i = 0; i < chunk.added_near.size; ++i) {
      added_near.Offer(chunk.added_near.id[i], chunk.added_near.d[i]);
    }
    rescans->insert(rescans->end(), chunk.rescans.begin(),
                    chunk.rescans.end());
  }
  // The pass priced every cluster alive beside added, and the chunks' keys
  // hold the smallest of them: their first two are the serial scan's
  // two-best of added.
  if (added != kNoCluster) {
    SetNearest(added, added_near, WatermarkNow());
    FoldCandidate(added);
  }
}

}  // namespace kanon
