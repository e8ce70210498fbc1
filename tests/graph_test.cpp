// Graph library tests: structural invariants on known graphs, metric
// formulas, generators, and the reconstructed Fig 4a deployment graph.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace sg = sos::graph;

TEST(Digraph, AddAndQueryEdges) {
  sg::Digraph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(1, 1));  // self loop
  EXPECT_FALSE(g.add_edge(0, 9));  // out of range
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

TEST(Digraph, DensityDirected) {
  sg::Digraph g(10);
  // 46 arcs over 90 possible: the paper's directed subscription density.
  int added = 0;
  for (sg::NodeId i = 0; i < 10 && added < 46; ++i)
    for (sg::NodeId j = 0; j < 10 && added < 46; ++j)
      if (i != j && g.add_edge(i, j)) ++added;
  EXPECT_NEAR(g.density(), 46.0 / 90.0, 1e-12);
}

TEST(Digraph, UndirectedClosureSymmetric) {
  sg::Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  auto u = g.undirected();
  EXPECT_TRUE(u.is_symmetric());
  EXPECT_TRUE(u.has_edge(1, 0));
  EXPECT_TRUE(u.has_edge(3, 2));
  EXPECT_EQ(u.edge_count(), 4u);
}

TEST(Metrics, ShortestPathsOnPath) {
  auto g = sg::path(5);
  auto d = sg::shortest_paths_from(g, 0);
  EXPECT_EQ(d[4], 4u);
  EXPECT_EQ(sg::diameter(g), 4u);
  EXPECT_EQ(sg::radius(g), 2u);
  auto c = sg::center(g);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], 2u);
}

TEST(Metrics, UnreachableNodes) {
  sg::Digraph g(3);
  g.add_edge(0, 1);
  auto d = sg::shortest_paths_from(g, 0);
  EXPECT_EQ(d[2], sg::kUnreachable);
  EXPECT_FALSE(sg::is_connected(g));
}

TEST(Metrics, DirectedReachabilityIsAsymmetric) {
  sg::Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_EQ(sg::shortest_paths_from(g, 0)[1], 1u);
  EXPECT_EQ(sg::shortest_paths_from(g, 1)[0], sg::kUnreachable);
}

TEST(Metrics, CompleteGraph) {
  auto g = sg::complete(5);
  EXPECT_EQ(sg::diameter(g), 1u);
  EXPECT_EQ(sg::radius(g), 1u);
  EXPECT_EQ(sg::center(g).size(), 5u);
  EXPECT_DOUBLE_EQ(sg::average_shortest_path_length(g), 1.0);
  EXPECT_DOUBLE_EQ(sg::transitivity(g), 1.0);
  EXPECT_EQ(sg::triangle_count(g), 10u);  // C(5,3)
}

TEST(Metrics, StarGraphHasNoTriangles) {
  auto g = sg::star(6);
  EXPECT_EQ(sg::triangle_count(g), 0u);
  EXPECT_DOUBLE_EQ(sg::transitivity(g), 0.0);
  EXPECT_EQ(sg::radius(g), 1u);
  EXPECT_EQ(sg::diameter(g), 2u);
  auto c = sg::center(g);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], 0u);
}

TEST(Metrics, CycleMetrics) {
  auto g = sg::cycle(6);
  EXPECT_EQ(sg::diameter(g), 3u);
  EXPECT_EQ(sg::radius(g), 3u);
  EXPECT_EQ(sg::triangle_count(g), 0u);
}

TEST(Metrics, TriadCountFormula) {
  // A path 0-1-2 has exactly one connected triad (centered at 1).
  auto g = sg::path(3);
  EXPECT_EQ(sg::connected_triad_count(g), 1u);
  EXPECT_EQ(sg::triangle_count(g), 0u);
}

TEST(Metrics, TransitivityTriangleWithTail) {
  // Triangle 0-1-2 plus pendant 3 attached to 0.
  sg::Digraph g(4);
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}, {0, 3}}) {
    g.add_edge(static_cast<sg::NodeId>(a), static_cast<sg::NodeId>(b));
    g.add_edge(static_cast<sg::NodeId>(b), static_cast<sg::NodeId>(a));
  }
  // triangles = 1; triads: deg(0)=3 -> 3, deg(1)=deg(2)=2 -> 1+1, deg(3)=1 -> 0. total 5.
  EXPECT_EQ(sg::triangle_count(g), 1u);
  EXPECT_EQ(sg::connected_triad_count(g), 5u);
  EXPECT_DOUBLE_EQ(sg::transitivity(g), 3.0 / 5.0);
}

// --- The reconstructed deployment graph (Fig 4a) -------------------------

TEST(Baker2017, NodeAndSubscriptionCounts) {
  auto g = sg::baker2017_social_graph();
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 46u);  // paper: 46 subscriptions
}

TEST(Baker2017, UndirectedDensityMatchesPaper) {
  auto u = sg::baker2017_social_graph().undirected();
  // paper: 0.64 (29 of 45 possible undirected pairs)
  EXPECT_EQ(u.edge_count(), 58u);  // 29 pairs, both arcs
  EXPECT_NEAR(u.density() * 1.0, 58.0 / 90.0, 1e-12);
  EXPECT_NEAR(29.0 / 45.0, 0.644, 0.001);
}

TEST(Baker2017, PaperExampleOneWayFollow) {
  auto g = sg::baker2017_social_graph();
  // paper: edge 1->3 exists, 3->1 does not (0-indexed: 0->2 without 2->0).
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 0));
}

TEST(Baker2017, DiameterAndRadius) {
  auto g = sg::baker2017_social_graph();
  // Both directed and undirected readings give diameter 2 / radius 1.
  EXPECT_EQ(sg::diameter(g), 2u);
  EXPECT_EQ(sg::radius(g), 1u);
  auto u = g.undirected();
  EXPECT_EQ(sg::diameter(u), 2u);
  EXPECT_EQ(sg::radius(u), 1u);
}

TEST(Baker2017, CentersArePaperNodes6And7) {
  auto g = sg::baker2017_social_graph();
  auto c = sg::center(g.undirected());
  // 0-indexed ids 5, 6 == paper's nodes 6, 7.
  EXPECT_EQ(c, (std::vector<sg::NodeId>{5, 6}));
}

TEST(Baker2017, AverageShortestPathNearPaper) {
  auto u = sg::baker2017_social_graph().undirected();
  // paper reports 1.3; exact reconstruction gives 61/45 = 1.356
  EXPECT_NEAR(sg::average_shortest_path_length(u), 1.356, 0.01);
}

TEST(Baker2017, TransitivityNearPaper) {
  auto g = sg::baker2017_social_graph();
  // paper reports 0.80; the two-K4 reconstruction gives 0.789
  EXPECT_NEAR(sg::transitivity(g), 0.789, 0.005);
}

TEST(Baker2017, ReciprocatedPairCount) {
  auto g = sg::baker2017_social_graph();
  std::size_t mutual = 0;
  for (auto [i, j] : g.edges())
    if (i < j && g.has_edge(j, i)) ++mutual;
  // 46 arcs over 29 pairs => 17 reciprocated + 12 one-way.
  EXPECT_EQ(mutual, 17u);
}

TEST(Baker2017, EveryUserIsWithinTwoHopsOfEveryOther) {
  // "even if a user does not follow another user directly, there is still
  //  an indirect follower that is two degrees away"
  auto g = sg::baker2017_social_graph();
  auto d = sg::all_pairs_shortest_paths(g);
  for (sg::NodeId i = 0; i < 10; ++i)
    for (sg::NodeId j = 0; j < 10; ++j)
      if (i != j) {
        EXPECT_LE(d[i][j], 2u) << i << "->" << j;
      }
}

// --- Generators ------------------------------------------------------------

TEST(Generators, SocialCommunityRespectsProbabilities) {
  sos::util::Rng rng(17);
  auto g = sg::social_community(40, 1.0, 0.0, rng);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(g.edge_count(), 40u * 39u);
}

TEST(Generators, SocialCommunityOneWayOnly) {
  sos::util::Rng rng(17);
  auto g = sg::social_community(30, 0.0, 1.0, rng);
  // every pair got exactly one direction
  EXPECT_EQ(g.edge_count(), 30u * 29u / 2u);
  for (auto [i, j] : g.edges()) EXPECT_FALSE(g.has_edge(j, i));
}
