// Graph generators: small fixed shapes, the sampled campus community the
// scenarios use, and the reconstructed AlleyOop deployment graph of Fig 4a.
#pragma once

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace sos::graph {

/// Fully connected symmetric graph.
Digraph complete(std::size_t n);

Digraph star(std::size_t n);    // node 0 center, symmetric
Digraph path(std::size_t n);    // 0-1-2-...-n-1, symmetric
Digraph cycle(std::size_t n);   // symmetric ring

/// The reconstructed Fig 4a social-relationship digraph of the Gainesville
/// deployment (10 nodes, 46 follow arcs over 29 undirected pairs).
///
/// Constraints taken from the paper: undirected density 0.64, diameter 2,
/// radius 1 with centers {6,7} (1-indexed), average shortest path ~1.3,
/// transitivity ~0.80, 46 total subscriptions, and the example that user 1
/// follows user 3 but not vice versa. Nodes here are 0-indexed: paper node
/// k = our node k-1 (centers are ids 5 and 6).
Digraph baker2017_social_graph();

/// Directed follow graph sampled to look like a small campus community:
/// symmetric core (mutual friends) plus one-way follows.
Digraph social_community(std::size_t n, double mutual_p, double oneway_p, util::Rng& rng);

}  // namespace sos::graph
