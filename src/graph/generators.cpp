#include "graph/generators.hpp"

namespace sos::graph {

Digraph complete(std::size_t n) {
  Digraph g(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j)
      if (i != j) g.add_edge(i, j);
  return g;
}

Digraph star(std::size_t n) {
  Digraph g(n);
  for (NodeId i = 1; i < n; ++i) {
    g.add_edge(0, i);
    g.add_edge(i, 0);
  }
  return g;
}

Digraph path(std::size_t n) {
  Digraph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1);
    g.add_edge(i + 1, i);
  }
  return g;
}

Digraph cycle(std::size_t n) {
  Digraph g = path(n);
  if (n > 2) {
    g.add_edge(static_cast<NodeId>(n - 1), 0);
    g.add_edge(0, static_cast<NodeId>(n - 1));
  }
  return g;
}

Digraph baker2017_social_graph() {
  // 0-indexed; paper node k = our node k-1. Centers: 5 and 6 (paper 6, 7).
  //
  // Structure: both centers mutually follow everyone (17 reciprocated
  // undirected pairs, including the 5-6 pair), and the remaining 8 users
  // form two K4 cliques {0,1,2,3} and {4,7,8,9} whose 12 pairs are all
  // one-way follows. Totals: 29 undirected pairs (density 29/45 = 0.644),
  // 46 arcs, diameter 2, radius 1 at the centers under both the directed
  // and undirected readings, transitivity 0.789.
  Digraph g(10);
  const NodeId centers[2] = {5, 6};
  for (NodeId c : centers) {
    for (NodeId v = 0; v < 10; ++v) {
      if (v == c) continue;
      g.add_edge(c, v);
      g.add_edge(v, c);
    }
  }
  // One-way follows inside clique {0,1,2,3}. 0 -> 2 is the paper's
  // "user 1 follows user 3 but not vice versa" example.
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 0);
  g.add_edge(2, 1);
  g.add_edge(1, 3);
  g.add_edge(3, 2);
  // One-way follows inside clique {4,7,8,9}.
  g.add_edge(4, 7);
  g.add_edge(8, 4);
  g.add_edge(9, 4);
  g.add_edge(7, 8);
  g.add_edge(9, 7);
  g.add_edge(8, 9);
  return g;
}

Digraph social_community(std::size_t n, double mutual_p, double oneway_p, util::Rng& rng) {
  Digraph g(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.chance(mutual_p)) {
        g.add_edge(i, j);
        g.add_edge(j, i);
      } else if (rng.chance(oneway_p)) {
        if (rng.chance(0.5))
          g.add_edge(i, j);
        else
          g.add_edge(j, i);
      }
    }
  return g;
}

}  // namespace sos::graph
