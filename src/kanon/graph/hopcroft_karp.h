#ifndef KANON_GRAPH_HOPCROFT_KARP_H_
#define KANON_GRAPH_HOPCROFT_KARP_H_

#include <cstdint>
#include <vector>

#include "kanon/graph/bipartite_graph.h"

namespace kanon {

/// Result of a maximum-matching computation.
struct Matching {
  /// match_left[u] = right vertex matched to u, or kUnmatched.
  std::vector<uint32_t> match_left;
  /// match_right[v] = left vertex matched to v, or kUnmatched.
  std::vector<uint32_t> match_right;
  size_t size = 0;
};

/// Maximum bipartite matching via Hopcroft–Karp, O(√V · E).
/// Used by the paper's Algorithm 6 and the global (1,k) verifier.
Matching HopcroftKarp(const BipartiteGraph& graph);

/// Maximum matching in the graph with `skip_left` and `skip_right` deleted.
/// This is the paper's primitive for testing whether an edge can be
/// completed to a perfect matching: edge (u,v) is a *match* iff the graph
/// minus {u, v} has a matching of size n − 1.
Matching HopcroftKarpExcluding(const BipartiteGraph& graph,
                               uint32_t skip_left, uint32_t skip_right);

/// True iff edge (u,v) belongs to some perfect matching, decided the
/// paper's way (one Hopcroft–Karp run on the reduced graph). Requires a
/// balanced graph. O(√V · E) per call — see matchable_edges.h for the
/// O(V + E) all-edges algorithm.
bool EdgeInSomePerfectMatchingNaive(const BipartiteGraph& graph, uint32_t u,
                                    uint32_t v);

}  // namespace kanon

#endif  // KANON_GRAPH_HOPCROFT_KARP_H_
