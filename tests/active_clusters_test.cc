// ActiveClusters: the near-lists, the O(1) repair paths of invariants A/B,
// the next merge the repair pass folds and the active list it rebuilds,
// checked against a serial reference scan with the lazy priority queue the
// pass replaced. The reference keeps its two-best with OfferToTwoBest, whose
// own semantics (including the regression for the historically-accidental
// unset-slot handling) are pinned first.
#include "kanon/algo/core/active_clusters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <random>
#include <vector>

#include "kanon/common/parallel.h"

namespace kanon {
namespace {

// --- OfferToTwoBest -------------------------------------------------------

// Offers candidate (y, d) to a two-best accumulator with the exact
// comparisons of an ascending-id serial scan: strict improvement wins, ties
// go to the smaller id. Merging chunk results in chunk order gives the
// serial scan's two-best, so it is the references' accumulator.
//
// The unset slots are handled explicitly: an empty accumulator adopts any
// candidate as its first-best, and a missing second-best adopts any
// non-first candidate. (Historically those cases fell through the tie-break
// comparisons only because kNoCluster compares greater than every real id
// and the unset distances are +inf — correct by accident, and broken by any
// future change to the sentinel.)
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

// Regression: an empty accumulator must adopt the first candidate outright.
// The old inline code only did so because kNoCluster compares greater than
// every real id and the unset distance is +inf — here the unset case is
// explicit and must hold even for candidates at +inf distance.
TEST(OfferToTwoBestTest, EmptyAccumulatorAdoptsFirstCandidate) {
  CandidatePair c;
  OfferToTwoBest(&c, 7, kInfDist);
  EXPECT_EQ(c.c1, 7u);
  EXPECT_EQ(c.d1, kInfDist);
  EXPECT_EQ(c.c2, kNoCluster);  // Nothing was displaced into the second slot.
  EXPECT_EQ(c.d2, kInfDist);
}

// Regression: a candidate with a large id must still fill an unset slot.
// Under the old sentinel comparison this worked only because real ids are
// < kNoCluster; it must not depend on that.
TEST(OfferToTwoBestTest, UnsetSecondSlotAdoptsAnyNonFirstCandidate) {
  CandidatePair c;
  OfferToTwoBest(&c, 3, 1.0);
  OfferToTwoBest(&c, 9, kInfDist);  // Worse than c1 but the slot is empty.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.d1, 1.0);
  EXPECT_EQ(c.c2, 9u);
  EXPECT_EQ(c.d2, kInfDist);
}

TEST(OfferToTwoBestTest, ImprovementDisplacesFirstIntoSecond) {
  CandidatePair c;
  OfferToTwoBest(&c, 5, 2.0);
  OfferToTwoBest(&c, 8, 1.0);
  EXPECT_EQ(c.c1, 8u);
  EXPECT_EQ(c.d1, 1.0);
  EXPECT_EQ(c.c2, 5u);
  EXPECT_EQ(c.d2, 2.0);
}

TEST(OfferToTwoBestTest, TiesGoToTheSmallerId) {
  CandidatePair c;
  OfferToTwoBest(&c, 5, 2.0);
  OfferToTwoBest(&c, 3, 2.0);  // Equal distance, smaller id: takes first.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.c2, 5u);
  OfferToTwoBest(&c, 9, 2.0);  // Equal distance, larger id: stays out.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.c2, 5u);
  OfferToTwoBest(&c, 4, 2.0);  // Beats c2's tie-break, not c1's.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.c2, 4u);
}

TEST(OfferToTwoBestTest, IgnoresSentinelAndDuplicates) {
  CandidatePair c;
  OfferToTwoBest(&c, kNoCluster, 0.0);  // The sentinel is never a candidate.
  EXPECT_EQ(c.c1, kNoCluster);
  OfferToTwoBest(&c, 5, 2.0);
  OfferToTwoBest(&c, 5, 1.0);  // Already the first-best: no double-count.
  EXPECT_EQ(c.c1, 5u);
  EXPECT_EQ(c.d1, 2.0);
  EXPECT_EQ(c.c2, kNoCluster);
}

// Merging per-chunk accumulators in chunk order must reproduce the serial
// ascending scan — the determinism contract of the parallel sweeps.
TEST(OfferToTwoBestTest, ChunkMergeMatchesSerialScan) {
  const double dist[8] = {4.0, 2.0, 7.0, 2.0, 9.0, 1.0, 2.0, 5.0};

  CandidatePair serial;
  for (uint32_t y = 0; y < 8; ++y) OfferToTwoBest(&serial, y, dist[y]);

  CandidatePair lo, hi, merged;
  for (uint32_t y = 0; y < 4; ++y) OfferToTwoBest(&lo, y, dist[y]);
  for (uint32_t y = 4; y < 8; ++y) OfferToTwoBest(&hi, y, dist[y]);
  for (const CandidatePair* chunk : {&lo, &hi}) {
    if (chunk->c1 != kNoCluster) {
      OfferToTwoBest(&merged, chunk->c1, chunk->d1);
    }
    if (chunk->c2 != kNoCluster) {
      OfferToTwoBest(&merged, chunk->c2, chunk->d2);
    }
  }

  EXPECT_EQ(merged.c1, serial.c1);
  EXPECT_EQ(merged.d1, serial.d1);
  EXPECT_EQ(merged.c2, serial.c2);
  EXPECT_EQ(merged.d2, serial.d2);
  EXPECT_EQ(serial.c1, 5u);  // dist 1.0.
  EXPECT_EQ(serial.c2, 1u);  // dist 2.0, smallest tied id.
}

// --- NearestKeys and near-lists -------------------------------------------

// The kept keys are the N smallest in (dist, id) order whatever the offer
// order, and the first two are OfferToTwoBest's two-best.
TEST(NearestKeysTest, KeepsTheSmallestKeysInAnyOfferOrder) {
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::pair<double, uint32_t>> keys;
    for (uint32_t y = 0; y < 12; ++y) {
      keys.emplace_back(0.5 * static_cast<double>(rng() % 4), y);
    }
    std::shuffle(keys.begin(), keys.end(), rng);
    NearestKeys<5> near;
    CandidatePair two;
    for (const auto& [d, y] : keys) {
      near.Offer(y, d);
      OfferToTwoBest(&two, y, d);
    }
    std::sort(keys.begin(), keys.end());
    ASSERT_TRUE(near.full());
    for (uint32_t i = 0; i < 5; ++i) {
      EXPECT_EQ(near.d[i], keys[i].first);
      EXPECT_EQ(near.id[i], keys[i].second);
    }
    const CandidatePair got = near.TwoBest();
    EXPECT_EQ(got.c1, two.c1);
    EXPECT_EQ(got.d1, two.d1);
    EXPECT_EQ(got.c2, two.c2);
    EXPECT_EQ(got.d2, two.d2);
  }
}

// Every alive id, ascending, found by brute force over every id ever added:
// what the active list must hold after a repair pass, and the ids of a
// one-chunk pass over the whole list.
std::vector<uint32_t> AllAlive(const ActiveClusters& clusters) {
  std::vector<uint32_t> ids;
  for (uint32_t y = 0; y < clusters.num_ids(); ++y) {
    if (clusters.Alive(y)) ids.push_back(y);
  }
  return ids;
}

// A rescan answered from a near-list must be the full scan's two-best, bit
// for bit, however many listed clusters died and new ones arrived since the
// list was filled; a list that cannot answer must say so and change nothing.
TEST(NearListTest, ServedRescanEqualsFullScanOrDeclines) {
  constexpr uint32_t kInitial = 60;
  constexpr uint32_t kMaxIds = 400;
  size_t served = 0;
  size_t declined = 0;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    std::vector<double> d(kMaxIds * kMaxIds);
    for (double& v : d) v = 0.25 * static_cast<double>(1 + rng() % 4);
    const auto dist = [&](uint32_t a, uint32_t b) {
      return d[a * kMaxIds + b];
    };
    ActiveClusters clusters;
    for (uint32_t i = 0; i < kInitial; ++i) clusters.Activate(clusters.Add());
    const auto full_scan = [&](uint32_t x) {
      NearList::Scan scan;
      for (uint32_t y : AllAlive(clusters)) {
        if (y != x) scan.Offer(y, dist(x, y));
      }
      return scan;
    };
    const uint32_t x = 0;
    clusters.SetScanned(x, full_scan(x));
    while (clusters.num_ids() + 3 < kMaxIds && clusters.active().size() > 4) {
      // One merge's worth of churn: two deaths (never x), one birth, and
      // the repair pass that drops the dead from the active list (its
      // steps, which would fix x's candidates, are left out).
      for (int death = 0; death < 2; ++death) {
        const std::vector<uint32_t>& active = clusters.active();
        uint32_t y = active[rng() % active.size()];
        while (y == x || !clusters.Alive(y)) {
          y = active[rng() % active.size()];
        }
        clusters.Deactivate(y);
      }
      std::vector<RepairChunk> chunks(1);
      chunks[0].ids = AllAlive(clusters);
      std::vector<uint32_t> rescans;
      clusters.ApplyRepairPass(clusters.Add(), chunks, &rescans);
      ASSERT_EQ(clusters.active(), AllAlive(clusters));
      if (rng() % 3 != 0) continue;
      const CandidatePair before = clusters.candidate(x);
      const CandidatePair want = full_scan(x).TwoBest();
      if (clusters.ServeRescan(x, [&](uint32_t y) { return dist(x, y); })) {
        ++served;
        const CandidatePair& got = clusters.candidate(x);
        ASSERT_EQ(got.c1, want.c1);
        ASSERT_EQ(got.d1, want.d1);
        ASSERT_EQ(got.c2, want.c2);
        ASSERT_EQ(got.d2, want.d2);
        ASSERT_TRUE(got.second_valid);
      } else {
        ++declined;
        ASSERT_EQ(clusters.candidate(x).c1, before.c1);
        clusters.SetScanned(x, full_scan(x));
      }
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(declined, 0u);
}

// --- ActiveClusters -------------------------------------------------------

class ActiveClustersTest : public ::testing::Test {
 protected:
  uint32_t AddAlive() {
    const uint32_t id = clusters_.Add();
    clusters_.Activate(id);
    return id;
  }

  // Gives x the exact two-best {(a, da), (b, db)}.
  void SetTwoBest(uint32_t x, uint32_t a, double da, uint32_t b, double db) {
    CandidatePair& c = clusters_.candidate(x);
    c = CandidatePair();
    OfferToTwoBest(&c, a, da);
    OfferToTwoBest(&c, b, db);
  }

  // x's step of a one-chunk repair pass over the active list at symmetric
  // distance d_x_added (the other clusters' steps are left out); true when
  // x needs a full rescan.
  bool Repair(uint32_t x, uint32_t added, double d_x_added) {
    std::vector<RepairChunk> chunks(1);
    chunks[0].ids = AllAlive(clusters_);
    clusters_.RepairStep(x, added, d_x_added, d_x_added, &chunks[0]);
    std::vector<uint32_t> rescans;
    clusters_.ApplyRepairPass(added, chunks, &rescans);
    return !rescans.empty();
  }

  ActiveClusters clusters_;
};

void ExpectSameEntry(const MergeCandidate& got, const MergeCandidate& want) {
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
}

TEST_F(ActiveClustersTest, TopIsTheFoldedKeyAndSkipsClustersWithoutAPair) {
  const uint32_t x = AddAlive(), a = AddAlive(), b = AddAlive();
  ExpectSameEntry(clusters_.Top(), kNoMerge);
  clusters_.FoldCandidate(b);  // No first-best: nothing to fold.
  ExpectSameEntry(clusters_.Top(), kNoMerge);

  SetTwoBest(x, a, 3.0, b, 5.0);
  clusters_.FoldCandidate(x);  // Only the first-best makes the key.
  ExpectSameEntry(clusters_.Top(), MergeCandidate{3.0, x, a});
}

TEST_F(ActiveClustersTest, TopBreaksTiesByIds) {
  const uint32_t w = AddAlive(), x = AddAlive(), y = AddAlive(),
                 z = AddAlive();
  SetTwoBest(z, w, 2.0, x, 2.0);
  SetTwoBest(y, x, 2.0, z, 2.0);
  SetTwoBest(x, y, 2.0, z, 3.0);
  // Equal distances: the smaller cluster id wins, whatever the fold order.
  for (uint32_t c : {z, y, x}) clusters_.FoldCandidate(c);
  ExpectSameEntry(clusters_.Top(), MergeCandidate{2.0, x, y});
  // A strictly closer key wins over any id.
  SetTwoBest(w, z, 1.0, x, 2.0);
  clusters_.FoldCandidate(w);
  ExpectSameEntry(clusters_.Top(), MergeCandidate{1.0, w, z});
}

TEST_F(ActiveClustersTest, RepairKeepsIntactNearest) {
  const uint32_t x = AddAlive(), a = AddAlive(), b = AddAlive();
  SetTwoBest(x, a, 3.0, b, 5.0);
  // a is still alive: nothing to repair regardless of the new cluster.
  EXPECT_FALSE(Repair(x, kNoCluster, kInfDist));
  EXPECT_EQ(clusters_.candidate(x).c1, a);
  ExpectSameEntry(clusters_.Top(), MergeCandidate{3.0, x, a});
}

TEST_F(ActiveClustersTest, RepairAdoptsProvablyCloserMergedCluster) {
  const uint32_t x = AddAlive(), a = AddAlive(), b = AddAlive();
  SetTwoBest(x, a, 3.0, b, 5.0);

  clusters_.Deactivate(a);
  const uint32_t merged = clusters_.Add();
  // dist(x, merged) <= old d1: exact new minimum, no rescan.
  EXPECT_FALSE(Repair(x, merged, 3.0));
  EXPECT_EQ(clusters_.candidate(x).c1, merged);
  EXPECT_EQ(clusters_.candidate(x).d1, 3.0);
  EXPECT_EQ(clusters_.candidate(x).c2, b);  // Second bound still holds.
  // The pass priced x for the merged cluster too; x's key wins the tie.
  EXPECT_EQ(clusters_.candidate(merged).c1, x);
  ExpectSameEntry(clusters_.Top(), MergeCandidate{3.0, x, merged});
  // The pass dropped the dead a and appended the merged cluster.
  EXPECT_EQ(clusters_.active(), (std::vector<uint32_t>{x, b, merged}));
}

TEST_F(ActiveClustersTest, RepairPromotesValidSecondAndInvalidatesIt) {
  const uint32_t x = AddAlive(), a = AddAlive(), b = AddAlive();
  SetTwoBest(x, a, 3.0, b, 5.0);

  clusters_.Deactivate(a);
  // The merged cluster is farther than d1, but invariant B makes b exact.
  EXPECT_FALSE(Repair(x, kNoCluster, kInfDist));
  EXPECT_EQ(clusters_.candidate(x).c1, b);
  EXPECT_EQ(clusters_.candidate(x).d1, 5.0);
  EXPECT_EQ(clusters_.candidate(x).c2, kNoCluster);
  EXPECT_FALSE(clusters_.candidate(x).second_valid);
  ExpectSameEntry(clusters_.Top(), MergeCandidate{5.0, x, b});

  // Losing b too now forces the full rescan: no second bound remains, and
  // x's key waits for it.
  clusters_.Deactivate(b);
  EXPECT_TRUE(Repair(x, kNoCluster, kInfDist));
  ExpectSameEntry(clusters_.Top(), kNoMerge);
}

// --- Repair pass ----------------------------------------------------------

// The one-at-a-time Offer/Repair scan over the active list that the chunked
// repair pass (RepairStep + ApplyRepairPass) replaced, with the lazy merge
// heap the engine once drained: an entry pushed at every first-best change,
// popped until both ends are alive. It stays here only as the reference the
// pass must reproduce exactly: every candidate slot, the rescan list, and
// the next merge (its first fully-alive pop).
class SerialRepairReference {
 public:
  struct Greater {
    bool operator()(const MergeCandidate& x, const MergeCandidate& y) const {
      if (x.dist != y.dist) return x.dist > y.dist;
      if (x.a != y.a) return x.a > y.a;
      return x.b > y.b;
    }
  };

  explicit SerialRepairReference(const ActiveClusters* clusters)
      : clusters_(clusters) {}

  void Offer(uint32_t x, uint32_t y, double d) {
    CandidatePair& c = cands[x];
    if (y == c.c1 || y == c.c2) return;
    if (d < c.d1 || (d == c.d1 && y < c.c1)) {
      c.c2 = c.c1;
      c.d2 = c.d1;
      c.second_valid = true;
      c.c1 = y;
      c.d1 = d;
      heap.push(MergeCandidate{d, x, y});
    } else if (d < c.d2 || (d == c.d2 && y < c.c2)) {
      c.c2 = y;
      c.d2 = d;
    }
  }

  bool Repair(uint32_t x, uint32_t added, double d_x_added) {
    CandidatePair& c = cands[x];
    if (c.c1 == kNoCluster || clusters_->Alive(c.c1)) return false;
    if (added != kNoCluster && d_x_added <= c.d1) {
      c.c1 = added;
      c.d1 = d_x_added;
      heap.push(MergeCandidate{d_x_added, x, added});
      return false;
    }
    if (clusters_->Alive(c.c2) && c.second_valid) {
      c.c1 = c.c2;
      c.d1 = c.d2;
      c.c2 = kNoCluster;
      c.d2 = kInfDist;
      c.second_valid = false;
      heap.push(MergeCandidate{c.d1, x, c.c1});
      return false;
    }
    return true;
  }

  template <typename Dist>
  std::vector<uint32_t> Pass(uint32_t added, const Dist& dist) {
    std::vector<uint32_t> rescans;
    for (uint32_t x : clusters_->active()) {
      if (!clusters_->Alive(x)) continue;
      if (added != kNoCluster) Offer(added, x, dist(added, x));
      const double d_x_added =
          added != kNoCluster ? dist(x, added) : kInfDist;
      if (Repair(x, added, d_x_added)) {
        rescans.push_back(x);
      } else if (added != kNoCluster) {
        Offer(x, added, d_x_added);
      }
    }
    return rescans;
  }

  std::vector<CandidatePair> cands;
  std::priority_queue<MergeCandidate, std::vector<MergeCandidate>, Greater>
      heap;

 private:
  const ActiveClusters* const clusters_;
};

// Drives a run of merges through the reference and through the chunked
// pass side by side (both read one ActiveClusters' aliveness) on a random
// distance matrix with many ties: compares the candidate slots, the rescans
// and the active list (exactly the alive ids, ascending) after every pass,
// and takes each merge from Top() once it equals the reference's.
void RunRepairPassScenario(uint32_t seed, bool symmetric, size_t grain) {
  SCOPED_TRACE(testing::Message() << "seed=" << seed << " symmetric="
                                  << symmetric << " grain=" << grain);
  constexpr uint32_t kInitial = 80;
  constexpr uint32_t kMaxIds = 2 * kInitial;
  std::mt19937 rng(seed);
  std::vector<double> d(kMaxIds * kMaxIds);
  for (uint32_t a = 0; a < kMaxIds; ++a) {
    for (uint32_t b = 0; b < kMaxIds; ++b) {
      // Four distinct values: most comparisons are ties.
      d[a * kMaxIds + b] = 0.25 * static_cast<double>(1 + rng() % 4);
      if (symmetric && b < a) d[a * kMaxIds + b] = d[b * kMaxIds + a];
    }
  }
  const auto dist = [&](uint32_t a, uint32_t b) { return d[a * kMaxIds + b]; };

  ActiveClusters clusters;
  SerialRepairReference ref(&clusters);
  ref.cands.resize(kMaxIds);
  for (uint32_t i = 0; i < kInitial; ++i) clusters.Activate(clusters.Add());
  for (uint32_t x = 0; x < kInitial; ++x) {
    for (uint32_t y = 0; y < kInitial; ++y) {
      if (y != x) ref.Offer(x, y, dist(x, y));
    }
    clusters.candidate(x) = ref.cands[x];
    clusters.FoldCandidate(x);
  }

  while (clusters.active().size() > 2 && clusters.num_ids() < kMaxIds) {
    // The reference pops to its first fully-alive entry; the pass's Top()
    // must be that entry, bit for bit.
    while (!ref.heap.empty() && !(clusters.Alive(ref.heap.top().a) &&
                                  clusters.Alive(ref.heap.top().b))) {
      ref.heap.pop();
    }
    ASSERT_FALSE(ref.heap.empty());
    const MergeCandidate entry = clusters.Top();
    ASSERT_EQ(entry.dist, ref.heap.top().dist);
    ASSERT_EQ(entry.a, ref.heap.top().a);
    ASSERT_EQ(entry.b, ref.heap.top().b);
    ref.heap.pop();
    clusters.Deactivate(entry.a);
    clusters.Deactivate(entry.b);
    // Every third merge "ripens": no new cluster joins the pass.
    uint32_t added = kNoCluster;
    if (rng() % 3 != 0) added = clusters.Add();

    const std::vector<uint32_t> want = ref.Pass(added, dist);
    const std::vector<uint32_t>& active = clusters.active();
    std::vector<RepairChunk> chunks(ParallelChunkCount(active.size(), grain));
    ParallelChunks(
        active.size(), 4, nullptr, "test",
        [&](size_t chunk, size_t begin, size_t end) {
          for (size_t t = begin; t < end; ++t) {
            const uint32_t x = active[t];
            if (!clusters.Alive(x)) continue;
            chunks[chunk].ids.push_back(x);
            clusters.RepairStep(
                x, added, added != kNoCluster ? dist(added, x) : kInfDist,
                added != kNoCluster ? dist(x, added) : kInfDist,
                &chunks[chunk]);
          }
        },
        grain);
    std::vector<uint32_t> got;
    clusters.ApplyRepairPass(added, chunks, &got);
    ASSERT_EQ(got, want);
    ASSERT_EQ(clusters.active(), AllAlive(clusters));

    for (uint32_t x : got) {
      CandidatePair c;
      for (uint32_t y : AllAlive(clusters)) {
        if (y != x) OfferToTwoBest(&c, y, dist(x, y));
      }
      ref.cands[x] = c;
      if (c.c1 != kNoCluster) ref.heap.push(MergeCandidate{c.d1, x, c.c1});
      clusters.candidate(x) = c;
      clusters.FoldCandidate(x);
    }
    for (uint32_t x = 0; x < clusters.num_ids(); ++x) {
      const CandidatePair& g = clusters.candidate(x);
      const CandidatePair& w = ref.cands[x];
      ASSERT_EQ(g.c1, w.c1) << "x=" << x;
      ASSERT_EQ(g.d1, w.d1) << "x=" << x;
      ASSERT_EQ(g.c2, w.c2) << "x=" << x;
      ASSERT_EQ(g.d2, w.d2) << "x=" << x;
      ASSERT_EQ(g.second_valid, w.second_valid) << "x=" << x;
    }
  }
}

TEST(RepairPassTest, ChunkedPassMatchesSerialScanAtEveryChunkCount) {
  // Grains 1, 3 and 7 cut the ~80-cluster active list into ~80, ~27 and
  // ~12 chunks; 1000 gives one chunk (the inline path).
  for (uint32_t seed = 1; seed <= 64; ++seed) {
    for (bool symmetric : {true, false}) {
      for (size_t grain : {1u, 3u, 7u, 1000u}) {
        RunRepairPassScenario(seed, symmetric, grain);
      }
    }
  }
}

}  // namespace
}  // namespace kanon
