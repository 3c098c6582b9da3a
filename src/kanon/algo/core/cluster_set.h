#ifndef KANON_ALGO_CORE_CLUSTER_SET_H_
#define KANON_ALGO_CORE_CLUSTER_SET_H_

#include <cstdint>
#include <vector>

#include "kanon/algo/core/closure_store.h"

namespace kanon {

/// Sentinel cluster id shared by the core components ("no cluster here").
inline constexpr uint32_t kNoCluster = UINT32_MAX;

/// One cluster of an agglomerative engine. Contents are immutable between
/// merges (merges create fresh clusters), except for the wind-down passes
/// that shrink or absorb into a cluster in place. What the hot sweeps read
/// per id (aliveness here, cost and size in the engine) is kept in dense
/// arrays instead.
struct ClusterData {
  std::vector<uint32_t> members;  // Dataset rows, ascending.
  ClosureStore::Id closure = ClosureStore::kInvalidId;
};

/// Alive/dead cluster bookkeeping shared by the clustering engines: the
/// cluster slab, the active-id list (ascending creation order, compacted
/// lazily), and the drain step both graceful wind-downs build on. Closure
/// ids refer to an external ClosureStore; ClusterSet itself never touches
/// records, which keeps it usable before closures exist (degraded stops).
class ClusterSet {
 public:
  ClusterSet() = default;

  void Reserve(size_t n) {
    clusters_.reserve(n);
    alive_.reserve(n);
  }

  /// Adds a cluster, dead and outside the active list; Activate() arms it.
  /// Ids are dense and creation-ordered — the tie-breaking currency of the
  /// deterministic scans.
  uint32_t Add(ClusterData data) {
    clusters_.push_back(std::move(data));
    alive_.push_back(0);
    return static_cast<uint32_t>(clusters_.size() - 1);
  }

  ClusterData& cluster(uint32_t id) {
    KANON_DCHECK(id < clusters_.size());
    return clusters_[id];
  }
  const ClusterData& cluster(uint32_t id) const {
    KANON_DCHECK(id < clusters_.size());
    return clusters_[id];
  }

  /// Total clusters ever created (dead ones included).
  size_t size() const { return clusters_.size(); }

  bool Alive(uint32_t id) const { return id != kNoCluster && alive_[id]; }

  void Activate(uint32_t id) {
    KANON_DCHECK(!alive_[id]);
    alive_[id] = 1;
    ++num_active_;
    active_.push_back(id);
  }

  void Deactivate(uint32_t id) {
    KANON_DCHECK(alive_[id]);
    alive_[id] = 0;
    --num_active_;
    ++num_dead_in_active_;
  }

  /// Active-id list, ascending; may contain dead entries until compaction.
  const std::vector<uint32_t>& active() const { return active_; }
  size_t num_active() const { return num_active_; }

  /// Drops dead entries from the active list once they are the majority.
  void MaybeCompactActive();

  /// Wind-down drain: gathers the members of every still-alive cluster,
  /// deactivating each, and returns the rows sorted ascending. Both the
  /// degraded and the regular leftover passes start here.
  std::vector<uint32_t> DrainAliveMembers();

 private:
  std::vector<ClusterData> clusters_;
  std::vector<uint8_t> alive_;  // One byte per id: the sweeps' hot read.
  std::vector<uint32_t> active_;
  size_t num_active_ = 0;
  size_t num_dead_in_active_ = 0;
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_CLUSTER_SET_H_
