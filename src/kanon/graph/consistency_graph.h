#ifndef KANON_GRAPH_CONSISTENCY_GRAPH_H_
#define KANON_GRAPH_CONSISTENCY_GRAPH_H_

#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/graph/bipartite_graph.h"

namespace kanon {

/// Builds the bipartite graph V_{D,g(D)} of Section IV: left vertices are
/// the original records of `dataset`, right vertices the generalized
/// records of `table`, with an edge for every consistent pair
/// (Definition 3.3). Each adjacency list is ascending: the set bits of one
/// ConsistencyIndex query, O(r·n/64 + degree) per original.
BipartiteGraph BuildConsistencyGraph(const Dataset& dataset,
                                     const GeneralizedTable& table);

}  // namespace kanon

#endif  // KANON_GRAPH_CONSISTENCY_GRAPH_H_
