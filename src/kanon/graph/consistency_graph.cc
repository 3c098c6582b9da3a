#include "kanon/graph/consistency_graph.h"

#include <vector>

#include "kanon/common/check.h"
#include "kanon/generalization/consistency_index.h"

namespace kanon {

BipartiteGraph BuildConsistencyGraph(const Dataset& dataset,
                                     const GeneralizedTable& table) {
  KANON_CHECK(dataset.num_attributes() == table.num_attributes(),
              "dataset/table arity mismatch");
  BipartiteGraph graph(dataset.num_rows(), table.num_rows());
  const ConsistencyIndex index(table);
  std::vector<uint64_t> consistent_rows(index.num_words());
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) {
    index.Consistent(dataset.row_view(i), consistent_rows.data());
    index.ForEachRow(consistent_rows.data(),
                     [&](uint32_t t) { graph.AddEdge(i, t); });
  }
  return graph;
}

}  // namespace kanon
