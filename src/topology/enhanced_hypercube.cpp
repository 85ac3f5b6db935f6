#include "topology/enhanced_hypercube.hpp"

#include <stdexcept>

namespace mmdiag {

EnhancedHypercube::EnhancedHypercube(unsigned n, unsigned k)
    : BitCubeTopology(n), k_(k) {
  if (n < 2 || n > 30) throw std::invalid_argument("EnhancedHypercube: need 2 <= n <= 30");
  if (k < 2 || k > n) {
    // k = 1 would duplicate the dimension-0 hypercube edge.
    throw std::invalid_argument("EnhancedHypercube: need 2 <= k <= n");
  }
}

TopologyInfo EnhancedHypercube::info() const {
  TopologyInfo t;
  t.name = std::string(1, 'Q')
               .append(std::to_string(n_))
               .append(",")
               .append(std::to_string(k_));
  t.family = "enhanced_hypercube";
  t.num_nodes = std::uint64_t{1} << n_;
  t.degree = n_ + 1;
  t.connectivity = n_ + 1;
  t.diagnosability = diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity);
  return t;
}

void EnhancedHypercube::neighbors(Node u, std::vector<Node>& out) const {
  out.clear();
  for (unsigned i = 0; i < n_; ++i) out.push_back(u ^ (Node{1} << i));
  out.push_back(u ^ static_cast<Node>((std::uint64_t{1} << k_) - 1));
}

}  // namespace mmdiag
