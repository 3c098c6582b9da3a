#include "kanon/algo/core/active_clusters.h"

namespace kanon {

void ActiveClusters::ApplyRepairPass(uint32_t added,
                                     const std::vector<RepairChunk>& chunks,
                                     std::vector<uint32_t>* rescans) {
  top_ = kNoMerge;
  active_.clear();
  NearList::Scan added_near;
  for (const RepairChunk& chunk : chunks) {
    FoldKey(&top_, chunk.top);
    active_.insert(active_.end(), chunk.ids.begin(), chunk.ids.end());
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
    SetNearest(added, added_near, num_ids());
    FoldCandidate(added);
    Activate(added);
  }
}

}  // namespace kanon
