#include "sim/subepisode.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace sos::sim {

namespace {

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Deterministic representative: the smaller index wins.
    if (b < a) std::swap(a, b);
    parent[b] = a;
  }
};

}  // namespace

ContactDag ContactDag::partition(const ContactTrace& trace, std::size_t node_count,
                                 util::SimTime horizon) {
  const auto& contacts = trace.contacts();
  const std::size_t n = contacts.size();
  UnionFind uf(n);

  // Fuse contacts that share a node and overlap in time (step 1, the only
  // fusion strands need). Sweep in start order; per
  // node, keep the contacts still open at the sweep point. Touching
  // intervals (c2.start == c1.end) fuse too: their events land on the same
  // timestamp and must stay on one scheduler — which is also what makes a
  // node's strand windows across distinct tasks *strictly* disjoint.
  {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return contacts[a].start < contacts[b].start;
    });
    std::map<std::uint32_t, std::vector<std::size_t>> open;
    for (std::size_t i : order) {
      const ContactInterval& c = contacts[i];
      for (std::uint32_t node : {c.a, c.b}) {
        auto& v = open[node];
        v.erase(std::remove_if(v.begin(), v.end(),
                               [&](std::size_t j) { return contacts[j].end < c.start; }),
                v.end());
        for (std::size_t j : v) uf.unite(i, j);
        v.push_back(i);
      }
    }
  }

  // Steps 1b/1c refine step 1 to the *exact* closure strand execution
  // needs; both grow clusters and can re-trigger each other, so they run
  // under one outer fixpoint. Termination: every pass either fuses (cluster
  // count strictly drops, bounded by n) or changes nothing and exits.
  for (bool again = true; again;) {
    again = false;

    // --- step 1b: fuse a node's clusters with overlapping hulls ------------
    // Step-1 fusion is transitive through *other* nodes, so a node's
    // contacts within one cluster need not be contiguous: its hull there
    // (first contact start .. last contact end) can contain a gap into
    // which a separate cluster places another of its contacts. The engine
    // holds the node until its hull end, so the inner cluster would need
    // the node while the outer one still owns it — they must fuse. The test
    // is keyed on per-node *hulls*, not cluster global spans: a cluster
    // that falls into a real gap of every shared node's hull stays
    // separate, which is exactly the concurrency this pass must preserve. Hull boundaries are always contact endpoints
    // of the node itself, and touching contacts already fused in step 1, so
    // the strict-overlap test is exhaustive — surviving clusters have
    // strictly disjoint per-node hulls.
    struct Hull {
      util::SimTime first_start, last_end;
    };
    for (bool changed = true; changed;) {
      changed = false;
      // node -> root -> hull of that node's contacts in the cluster
      std::map<std::uint32_t, std::map<std::size_t, Hull>> hulls;
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t r = uf.find(i);
        for (std::uint32_t node : {contacts[i].a, contacts[i].b}) {
          auto [it, fresh] =
              hulls[node].try_emplace(r, Hull{contacts[i].start, contacts[i].end});
          if (!fresh) {
            it->second.first_start = std::min(it->second.first_start, contacts[i].start);
            it->second.last_end = std::max(it->second.last_end, contacts[i].end);
          }
        }
      }
      for (auto& [node, clusters] : hulls) {
        std::vector<std::pair<util::SimTime, std::size_t>> entries;  // (hull start, root)
        for (auto& [root, hull] : clusters) entries.push_back({hull.first_start, root});
        std::sort(entries.begin(), entries.end());
        util::SimTime covered_to = -1.0;
        std::size_t covered_root = 0;
        for (auto& [first_start, root] : entries) {
          if (covered_to >= 0 && first_start < covered_to &&
              uf.find(root) != uf.find(covered_root)) {
            uf.unite(covered_root, root);
            changed = true;
            again = true;
          }
          if (clusters.at(root).last_end > covered_to) {
            covered_to = clusters.at(root).last_end;
            covered_root = root;
          }
        }
      }
    }

    // --- step 1c: fuse strand-chain dependency cycles ----------------------
    // The execution order between clusters sharing a node is that node's
    // hull order, and the union of those per-node orders must be acyclic.
    // Disjoint hulls do not guarantee that: cluster A can hold node X
    // before B while B holds node Y before A (mutual entanglement), or a
    // longer pairwise-consistent loop can close through several nodes.
    // Every edge on such a cycle is a hard happens-before, so no execution
    // order exists — the members must share one shard. Fuse every
    // non-trivial strongly-connected component of the chain graph
    // (iterative Tarjan over clusters in deterministic dense-index order).
    std::map<std::size_t, std::size_t> root_idx;  // root -> dense index
    for (std::size_t i = 0; i < n; ++i) root_idx.try_emplace(uf.find(i), 0);
    std::size_t m = 0;
    for (auto& [root, idx] : root_idx) idx = m++;
    std::vector<std::size_t> rep(m);  // dense index -> root
    for (auto& [root, idx] : root_idx) rep[idx] = root;

    // node -> cluster -> first contact start there; consecutive clusters of
    // a node's sorted chain get an edge.
    std::map<std::uint32_t, std::map<std::size_t, util::SimTime>> first_in;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t c = root_idx.at(uf.find(i));
      for (std::uint32_t node : {contacts[i].a, contacts[i].b}) {
        auto [it, fresh] = first_in[node].try_emplace(c, contacts[i].start);
        if (!fresh) it->second = std::min(it->second, contacts[i].start);
      }
    }
    std::vector<std::vector<std::size_t>> out(m);
    for (auto& [node, per_cluster] : first_in) {
      std::vector<std::pair<util::SimTime, std::size_t>> chain;
      for (auto& [cluster, first_start] : per_cluster) chain.push_back({first_start, cluster});
      std::sort(chain.begin(), chain.end());
      for (std::size_t i = 1; i < chain.size(); ++i)
        out[chain[i - 1].second].push_back(chain[i].second);
    }

    std::vector<std::size_t> index(m, SIZE_MAX), low(m, 0), scc_stack;
    std::vector<bool> on_stack(m, false);
    std::size_t next_index = 0;
    struct Frame {
      std::size_t v, edge;
    };
    for (std::size_t s = 0; s < m; ++s) {
      if (index[s] != SIZE_MAX) continue;
      std::vector<Frame> call{{s, 0}};
      index[s] = low[s] = next_index++;
      scc_stack.push_back(s);
      on_stack[s] = true;
      while (!call.empty()) {
        Frame& f = call.back();
        if (f.edge < out[f.v].size()) {
          std::size_t w = out[f.v][f.edge++];
          if (index[w] == SIZE_MAX) {
            index[w] = low[w] = next_index++;
            scc_stack.push_back(w);
            on_stack[w] = true;
            call.push_back({w, 0});
          } else if (on_stack[w]) {
            low[f.v] = std::min(low[f.v], index[w]);
          }
        } else {
          if (low[f.v] == index[f.v]) {
            std::vector<std::size_t> scc;
            for (;;) {
              std::size_t w = scc_stack.back();
              scc_stack.pop_back();
              on_stack[w] = false;
              scc.push_back(w);
              if (w == f.v) break;
            }
            if (scc.size() > 1) {
              for (std::size_t w : scc) uf.unite(rep[scc[0]], rep[w]);
              again = true;
            }
          }
          std::size_t v = f.v;
          call.pop_back();
          if (!call.empty()) low[call.back().v] = std::min(low[call.back().v], low[v]);
        }
      }
    }
  }

  // --- materialize tasks in trace order -----------------------------------
  ContactDag dag;
  std::map<std::size_t, std::size_t> root_to_task;  // ordered by min index
  for (std::size_t i = 0; i < n; ++i) root_to_task.try_emplace(uf.find(i), 0);
  {
    std::size_t next = 0;
    for (auto& [root, idx] : root_to_task) idx = next++;
  }
  dag.tasks_.resize(root_to_task.size());
  for (std::size_t i = 0; i < n; ++i) {
    ContactTask& t = dag.tasks_[root_to_task.at(uf.find(i))];
    const ContactInterval& c = contacts[i];
    if (t.contacts.empty()) {
      t.first_start = c.start;
      t.last_end = c.end;
    } else {
      t.first_start = std::min(t.first_start, c.start);
      t.last_end = std::max(t.last_end, c.end);
    }
    t.contacts.push_back(i);
  }
  // Per-member strands: each member's window from its first contact start to
  // its last contact end within the task (its detach point).
  for (ContactTask& t : dag.tasks_) {
    std::map<std::uint32_t, ContactStrand> members;  // ordered by node
    for (std::size_t ci : t.contacts) {
      const ContactInterval& c = contacts[ci];
      for (std::uint32_t node : {c.a, c.b}) {
        auto [it, fresh] = members.try_emplace(node, ContactStrand{node, c.start, c.end});
        if (!fresh) {
          it->second.first_start = std::min(it->second.first_start, c.start);
          it->second.last_end = std::max(it->second.last_end, c.end);
        }
      }
    }
    for (auto& [node, strand] : members) t.strands.push_back(strand);
  }
  dag.contact_tasks_ = dag.tasks_.size();

  // --- dependency edges: consecutive tasks of each node --------------------
  // A node's strand windows across tasks are strictly disjoint (step-1b
  // fixpoint), so ordering its tasks by its own first contact start is
  // well-defined; chaining consecutive tasks hands its middleware state
  // through the detach/attach seam and transitively orders every pair of
  // tasks sharing a node.
  std::map<std::uint32_t, std::vector<std::pair<util::SimTime, std::size_t>>> node_chain;
  for (std::size_t ti = 0; ti < dag.tasks_.size(); ++ti) {
    for (const ContactStrand& s : dag.tasks_[ti].strands) {
      node_chain[s.node].push_back({s.first_start, ti});
    }
  }
  std::vector<std::size_t> last_of_node(node_count, SIZE_MAX);
  for (auto& [node, chain] : node_chain) {
    std::sort(chain.begin(), chain.end());
    for (std::size_t i = 1; i < chain.size(); ++i)
      dag.tasks_[chain[i].second].deps.push_back(chain[i - 1].second);
    if (node < node_count && !chain.empty()) last_of_node[node] = chain.back().second;
  }
  for (ContactTask& t : dag.tasks_) {
    std::sort(t.deps.begin(), t.deps.end());
    t.deps.erase(std::unique(t.deps.begin(), t.deps.end()), t.deps.end());
  }

  // --- tail task: every node's timeline from its last contact to the
  // horizon. Contact-free, so its members cannot interact: one shared
  // scheduler suffices for all of them.
  ContactTask tail;
  tail.first_start = 0;
  tail.last_end = horizon;
  for (std::uint32_t node = 0; node < node_count; ++node) {
    tail.strands.push_back({node, 0, horizon});
    if (last_of_node[node] != SIZE_MAX) tail.deps.push_back(last_of_node[node]);
  }
  std::sort(tail.deps.begin(), tail.deps.end());
  tail.deps.erase(std::unique(tail.deps.begin(), tail.deps.end()), tail.deps.end());
  if (!tail.strands.empty()) dag.tasks_.push_back(std::move(tail));
  return dag;
}

ContactDag ContactDag::fused(const ContactTrace& trace, std::size_t node_count,
                             util::SimTime horizon) {
  ContactDag dag;
  const auto& contacts = trace.contacts();
  if (!contacts.empty()) {
    ContactTask all;
    all.first_start = contacts.front().start;
    for (std::size_t ci = 0; ci < contacts.size(); ++ci) {
      all.contacts.push_back(ci);
      all.first_start = std::min(all.first_start, contacts[ci].start);
      all.last_end = std::max(all.last_end, contacts[ci].end);
    }
    for (std::uint32_t node = 0; node < node_count; ++node)
      all.strands.push_back({node, all.first_start, all.last_end});
    dag.tasks_.push_back(std::move(all));
  }
  dag.contact_tasks_ = dag.tasks_.size();
  ContactTask tail;
  tail.first_start = 0;
  tail.last_end = horizon;
  for (std::uint32_t node = 0; node < node_count; ++node) tail.strands.push_back({node, 0, horizon});
  if (!dag.tasks_.empty()) tail.deps.push_back(0);
  dag.tasks_.push_back(std::move(tail));
  return dag;
}

double ContactDag::parallelism() const {
  double total = 0, critical = 0;
  std::vector<double> longest(tasks_.size(), 0);
  // Kahn over the dep edges; deps are not necessarily earlier indices, so
  // process tasks only once their deps resolve.
  std::vector<std::size_t> pending(tasks_.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(tasks_.size());
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    pending[i] = tasks_[i].deps.size();
    for (std::size_t d : tasks_[i].deps) dependents[d].push_back(i);
    if (pending[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    std::size_t i = ready.back();
    ready.pop_back();
    double w = static_cast<double>(tasks_[i].contacts.size());
    double best = 0;
    for (std::size_t d : tasks_[i].deps) best = std::max(best, longest[d]);
    longest[i] = best + w;
    total += w;
    critical = std::max(critical, longest[i]);
    for (std::size_t dep : dependents[i]) {
      if (--pending[dep] == 0) ready.push_back(dep);
    }
  }
  return critical > 0 ? total / critical : 1.0;
}

std::size_t ContactDag::width() const {
  // Sweep the contact tasks' global spans; at equal timestamps ends close
  // before starts, so back-to-back tasks never count as concurrent.
  std::vector<std::pair<util::SimTime, int>> events;
  for (std::size_t i = 0; i < contact_tasks_; ++i) {
    events.push_back({tasks_[i].first_start, +1});
    events.push_back({tasks_[i].last_end, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const std::pair<util::SimTime, int>& a, const std::pair<util::SimTime, int>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // -1 (end) before +1 (start)
            });
  std::size_t open = 0, widest = 0;
  for (const auto& [t, delta] : events) {
    if (delta > 0) {
      ++open;
      widest = std::max(widest, open);
    } else {
      --open;
    }
  }
  return widest;
}

}  // namespace sos::sim
