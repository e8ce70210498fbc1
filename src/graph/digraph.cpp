#include "graph/digraph.hpp"

namespace sos::graph {

Digraph::Digraph(std::size_t n) : out_(n), in_(n) {}

bool Digraph::add_edge(NodeId from, NodeId to) {
  if (from == to || from >= out_.size() || to >= out_.size()) return false;
  if (!out_[from].insert(to).second) return false;
  in_[to].insert(from);
  ++edge_count_;
  return true;
}

bool Digraph::has_edge(NodeId from, NodeId to) const {
  if (from >= out_.size() || to >= out_.size()) return false;
  return out_[from].count(to) > 0;
}

double Digraph::density() const {
  std::size_t n = node_count();
  if (n < 2) return 0.0;
  return static_cast<double>(edge_count_) / static_cast<double>(n * (n - 1));
}

std::vector<std::pair<NodeId, NodeId>> Digraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count_);
  for (NodeId v = 0; v < out_.size(); ++v)
    for (NodeId w : out_[v]) out.emplace_back(v, w);
  return out;
}

Digraph Digraph::undirected() const {
  Digraph g(node_count());
  for (NodeId v = 0; v < out_.size(); ++v)
    for (NodeId w : out_[v]) {
      g.add_edge(v, w);
      g.add_edge(w, v);
    }
  return g;
}

bool Digraph::is_symmetric() const {
  for (NodeId v = 0; v < out_.size(); ++v)
    for (NodeId w : out_[v])
      if (!has_edge(w, v)) return false;
  return true;
}

}  // namespace sos::graph
