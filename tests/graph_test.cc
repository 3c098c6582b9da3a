#include <gtest/gtest.h>

#include <functional>

#include "kanon/common/rng.h"
#include "kanon/graph/bipartite_graph.h"
#include "kanon/graph/hopcroft_karp.h"
#include "kanon/graph/strongly_connected.h"

namespace kanon {
namespace {

// Brute-force maximum matching by augmenting paths (Kuhn), as an oracle.
size_t KuhnMatchingSize(const BipartiteGraph& g) {
  std::vector<uint32_t> match_right(g.num_right(), kUnmatched);
  std::vector<bool> used;
  std::function<bool(uint32_t)> try_kuhn = [&](uint32_t u) -> bool {
    for (uint32_t v : g.Neighbors(u)) {
      if (used[v]) continue;
      used[v] = true;
      if (match_right[v] == kUnmatched || try_kuhn(match_right[v])) {
        match_right[v] = u;
        return true;
      }
    }
    return false;
  };
  size_t size = 0;
  for (uint32_t u = 0; u < g.num_left(); ++u) {
    used.assign(g.num_right(), false);
    if (try_kuhn(u)) ++size;
  }
  return size;
}

BipartiteGraph RandomGraph(Rng* rng, size_t nl, size_t nr, double p) {
  BipartiteGraph g(nl, nr);
  for (uint32_t u = 0; u < nl; ++u) {
    for (uint32_t v = 0; v < nr; ++v) {
      if (rng->NextDouble() < p) g.AddEdge(u, v);
    }
  }
  return g;
}

TEST(BipartiteGraphTest, Basics) {
  BipartiteGraph g(2, 3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.num_left(), 2u);
  EXPECT_EQ(g.num_right(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.Neighbors(0), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(g.RightDegrees(), (std::vector<uint32_t>{0, 1, 2}));
}

TEST(HopcroftKarpTest, PerfectMatchingOnIdentity) {
  BipartiteGraph g(4, 4);
  for (uint32_t i = 0; i < 4; ++i) g.AddEdge(i, i);
  const Matching m = HopcroftKarp(g);
  EXPECT_EQ(m.size, 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m.match_left[i], i);
    EXPECT_EQ(m.match_right[i], i);
  }
}

TEST(HopcroftKarpTest, NeedsAugmentingPaths) {
  // Classic example: greedy matching gets stuck without augmenting.
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  const Matching m = HopcroftKarp(g);
  EXPECT_EQ(m.size, 2u);
  EXPECT_EQ(m.match_left[0], 1u);
  EXPECT_EQ(m.match_left[1], 0u);
}

TEST(HopcroftKarpTest, EmptyGraph) {
  BipartiteGraph g(3, 3);
  const Matching m = HopcroftKarp(g);
  EXPECT_EQ(m.size, 0u);
}

TEST(HopcroftKarpTest, UnbalancedGraph) {
  BipartiteGraph g(3, 1);
  g.AddEdge(0, 0);
  g.AddEdge(1, 0);
  g.AddEdge(2, 0);
  const Matching m = HopcroftKarp(g);
  EXPECT_EQ(m.size, 1u);
}

TEST(HopcroftKarpTest, MatchesKuhnOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t nl = 1 + rng.NextBounded(12);
    const size_t nr = 1 + rng.NextBounded(12);
    const BipartiteGraph g = RandomGraph(&rng, nl, nr, 0.3);
    EXPECT_EQ(HopcroftKarp(g).size, KuhnMatchingSize(g))
        << "trial " << trial;
  }
}

TEST(HopcroftKarpTest, MatchingIsConsistentAndValid) {
  Rng rng(7);
  const BipartiteGraph g = RandomGraph(&rng, 20, 20, 0.2);
  const Matching m = HopcroftKarp(g);
  size_t matched = 0;
  for (uint32_t u = 0; u < g.num_left(); ++u) {
    if (m.match_left[u] == kUnmatched) continue;
    ++matched;
    EXPECT_TRUE(g.HasEdge(u, m.match_left[u]));
    EXPECT_EQ(m.match_right[m.match_left[u]], u);
  }
  EXPECT_EQ(matched, m.size);
}

TEST(HopcroftKarpTest, ExcludingVertices) {
  BipartiteGraph g(3, 3);
  for (uint32_t i = 0; i < 3; ++i) g.AddEdge(i, i);
  g.AddEdge(0, 1);
  // Excluding (0,0): left 1,2 and right 1,2 remain matchable via identity.
  const Matching m = HopcroftKarpExcluding(g, 0, 0);
  EXPECT_EQ(m.size, 2u);
  EXPECT_EQ(m.match_left[0], kUnmatched);
}

TEST(HopcroftKarpTest, EdgeInSomePerfectMatchingNaive) {
  // Path-shaped graph: L0-R0, L0-R1, L1-R1. Edge (0,1) is in no perfect
  // matching (L1 would starve); edges (0,0) and (1,1) are.
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 1);
  EXPECT_TRUE(EdgeInSomePerfectMatchingNaive(g, 0, 0));
  EXPECT_FALSE(EdgeInSomePerfectMatchingNaive(g, 0, 1));
  EXPECT_TRUE(EdgeInSomePerfectMatchingNaive(g, 1, 1));
}

TEST(SccTest, SingleCycle) {
  // 0 -> 1 -> 2 -> 0.
  std::vector<std::vector<uint32_t>> adj = {{1}, {2}, {0}};
  const std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
}

TEST(SccTest, Dag) {
  std::vector<std::vector<uint32_t>> adj = {{1}, {2}, {}};
  const std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  EXPECT_NE(comp[0], comp[1]);
  EXPECT_NE(comp[1], comp[2]);
}

TEST(SccTest, TwoComponentsWithBridge) {
  // {0,1} cycle -> {2,3} cycle.
  std::vector<std::vector<uint32_t>> adj = {{1}, {0, 2}, {3}, {2}};
  const std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(SccTest, SelfLoopsAndIsolated) {
  std::vector<std::vector<uint32_t>> adj = {{0}, {}, {1}};
  const std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  EXPECT_NE(comp[0], comp[1]);
  EXPECT_NE(comp[1], comp[2]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(SccTest, ReverseTopologicalIds) {
  // Component ids are assigned in reverse topological order: a component
  // is numbered before its predecessors.
  std::vector<std::vector<uint32_t>> adj = {{1}, {}};
  const std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  EXPECT_LT(comp[1], comp[0]);
}

TEST(SccTest, LargePathIterative) {
  // Deep path exercises the iterative DFS (a recursive Tarjan would
  // overflow the stack here).
  const size_t n = 200000;
  std::vector<std::vector<uint32_t>> adj(n);
  for (uint32_t i = 0; i + 1 < n; ++i) adj[i].push_back(i + 1);
  const std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  EXPECT_EQ(comp[0], n - 1);
  EXPECT_EQ(comp[n - 1], 0u);
}

TEST(SccTest, BigCycleIsOneComponent) {
  const size_t n = 100000;
  std::vector<std::vector<uint32_t>> adj(n);
  for (uint32_t i = 0; i < n; ++i) adj[i].push_back((i + 1) % n);
  const std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  for (uint32_t i = 1; i < n; ++i) {
    ASSERT_EQ(comp[i], comp[0]);
  }
}

}  // namespace
}  // namespace kanon
