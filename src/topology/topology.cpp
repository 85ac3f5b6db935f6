#include "topology/topology.hpp"

#include <algorithm>

#include "graph/builder.hpp"

namespace mmdiag {

namespace {

// Scratch for the generic implicit-adjacency fallbacks. thread_local so the
// fallbacks stay allocation-free in steady state and safe under the engine's
// thread pool.
std::vector<Node>& fallback_scratch() {
  thread_local std::vector<Node> scratch;
  return scratch;
}

}  // namespace

std::string Topology::spec() const {
  std::string out = info().family;
  for (const unsigned p : params()) {
    out += ' ';
    out += std::to_string(p);
  }
  return out;
}

Graph Topology::build_graph() const {
  return build_graph_from_generator(
      static_cast<std::size_t>(info().num_nodes),
      [this](Node u, std::vector<Node>& out) { neighbors(u, out); });
}

unsigned Topology::degree(Node /*u*/) const { return info().degree; }

unsigned Topology::sorted_neighbors(Node u, Node* out) const {
  std::vector<Node>& scratch = fallback_scratch();
  neighbors(u, scratch);
  std::sort(scratch.begin(), scratch.end());
  std::copy(scratch.begin(), scratch.end(), out);
  return static_cast<unsigned>(scratch.size());
}

Node Topology::neighbor(Node u, unsigned p) const {
  std::vector<Node>& scratch = fallback_scratch();
  neighbors(u, scratch);
  std::sort(scratch.begin(), scratch.end());
  return scratch[p];
}

int Topology::neighbor_position(Node u, Node v) const {
  std::vector<Node>& scratch = fallback_scratch();
  neighbors(u, scratch);
  std::sort(scratch.begin(), scratch.end());
  const auto it = std::lower_bound(scratch.begin(), scratch.end(), v);
  if (it == scratch.end() || *it != v) return -1;
  return static_cast<int>(it - scratch.begin());
}

unsigned diagnosability_by_chang(std::uint64_t num_nodes, unsigned degree,
                                 unsigned connectivity) {
  if (degree == 0 || connectivity != degree) return 0;
  if (num_nodes < 2ULL * degree + 3ULL) return 0;
  return degree;
}

}  // namespace mmdiag
