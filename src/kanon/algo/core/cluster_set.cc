#include "kanon/algo/core/cluster_set.h"

#include <algorithm>

namespace kanon {

void ClusterSet::MaybeCompactActive() {
  if (num_dead_in_active_ * 2 < active_.size()) return;
  std::vector<uint32_t> compacted;
  compacted.reserve(num_active_);
  for (uint32_t id : active_) {
    if (alive_[id]) compacted.push_back(id);
  }
  active_ = std::move(compacted);
  num_dead_in_active_ = 0;
}

std::vector<uint32_t> ClusterSet::DrainAliveMembers() {
  std::vector<uint32_t> rows;
  for (uint32_t id : active_) {
    if (!alive_[id]) continue;
    rows.insert(rows.end(), clusters_[id].members.begin(),
                clusters_[id].members.end());
    Deactivate(id);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace kanon
