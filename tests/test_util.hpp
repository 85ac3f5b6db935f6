// Shared helpers for mmdiag tests.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "mm/fault_set.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "topology/registry.hpp"
#include "topology/topology.hpp"

namespace mmdiag::test {

/// Small instances of all 14 registry families; only the hypercube has an
/// implicit view.
inline constexpr const char* kEveryFamilySpec[] = {
    "hypercube 5",          "crossed_cube 5",
    "twisted_cube 5",       "folded_hypercube 5",
    "enhanced_hypercube 5 2", "augmented_cube 6",
    "shuffle_cube 6",       "twisted_n_cube 5",
    "kary_ncube 2 6",       "augmented_kary_ncube 3 4",
    "star 4",               "nk_star 5 3",
    "pancake 4",            "arrangement 5 3",
};

/// A topology instance together with its materialised graph.
struct Instance {
  std::unique_ptr<Topology> topo;
  Graph graph;

  explicit Instance(const std::string& spec)
      : topo(make_topology_from_spec(spec)), graph(topo->build_graph()) {}
};

/// `g` without the edge {u, v}: the node count and maximum degree stay,
/// but u and v lose a neighbour each, so a regular `g` turns irregular.
inline Graph without_edge(const Graph& g, Node u, Node v) {
  return build_graph_from_generator(
      g.num_nodes(), [&](Node x, std::vector<Node>& out) {
        for (const Node y : g.neighbors(x)) {
          if ((x == u && y == v) || (x == v && y == u)) continue;
          out.push_back(y);
        }
      });
}

/// Sorted copy helper for comparing fault lists.
inline std::vector<Node> sorted(std::vector<Node> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace mmdiag::test
