// Directed social-relationship graph. An edge i -> j means "user i follows
// user j" (paper §VI-A); the undirected view is used for the compactness
// metrics (density, path lengths, transitivity) exactly as the paper does.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

namespace sos::graph {

using NodeId = std::uint32_t;

class Digraph {
 public:
  explicit Digraph(std::size_t n = 0);

  std::size_t node_count() const { return out_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Add the arc from -> to. Self-loops are ignored. Returns true if new.
  bool add_edge(NodeId from, NodeId to);
  bool has_edge(NodeId from, NodeId to) const;

  const std::set<NodeId>& out_neighbors(NodeId v) const { return out_[v]; }
  const std::set<NodeId>& in_neighbors(NodeId v) const { return in_[v]; }
  std::size_t out_degree(NodeId v) const { return out_[v].size(); }
  std::size_t in_degree(NodeId v) const { return in_[v].size(); }

  /// |E| / (n(n-1)): fraction of possible arcs present.
  double density() const;

  /// All arcs as (from, to) pairs.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Symmetric closure: ei,j implies ej,i (paper's "translate Figure 4a to
  /// an undirected graph").
  Digraph undirected() const;

  /// True if every arc has its reverse (i.e. the graph is symmetric).
  bool is_symmetric() const;

 private:
  std::vector<std::set<NodeId>> out_;
  std::vector<std::set<NodeId>> in_;
  std::size_t edge_count_ = 0;
};

}  // namespace sos::graph
