#include "topology/hypercube.hpp"

#include <stdexcept>

namespace mmdiag {

Hypercube::Hypercube(unsigned n) : BitCubeTopology(n) {
  if (n < 1 || n > 30) throw std::invalid_argument("Hypercube: need 1 <= n <= 30");
}

TopologyInfo Hypercube::info() const {
  TopologyInfo t;
  t.name = std::string(1, 'Q').append(std::to_string(n_));
  t.family = "hypercube";
  t.num_nodes = std::uint64_t{1} << n_;
  t.degree = n_;
  t.connectivity = n_;
  t.diagnosability = diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity);
  return t;
}

void Hypercube::neighbors(Node u, std::vector<Node>& out) const {
  out.clear();
  for (unsigned i = 0; i < n_; ++i) out.push_back(u ^ (Node{1} << i));
}

}  // namespace mmdiag
