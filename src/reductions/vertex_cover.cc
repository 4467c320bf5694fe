#include "reductions/vertex_cover.h"

#include "resilience/exact_solver.h"

namespace rescq {

VertexCoverResult MinVertexCover(const Graph& g) {
  VertexCoverResult result;
  if (g.edges.empty()) return result;
  HittingSetFamily family;
  for (auto [u, v] : g.edges) {
    const int edge[2] = {u, v};
    family.Add(edge, 2);
  }
  HittingSetResult hs = SolveMinHittingSet(family);
  result.size = hs.size;
  result.cover = hs.chosen;
  return result;
}

}  // namespace rescq
