#include "topology/pancake.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmdiag {

Pancake::Pancake(unsigned n) : PermTopology(n, n) {
  if (n < 2 || n > 12) throw std::invalid_argument("Pancake: need 2 <= n <= 12");
}

TopologyInfo Pancake::info() const {
  TopologyInfo t;
  t.name = std::string(1, 'P').append(std::to_string(n_));
  t.family = "pancake";
  t.num_nodes = codec_.count();
  t.degree = n_ - 1;
  t.connectivity = n_ - 1;
  t.diagnosability = diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity);
  return t;
}

void Pancake::neighbors(Node u, std::vector<Node>& out) const {
  out.clear();
  std::uint8_t a[64];
  codec_.unrank(u, a);
  // Successive prefix reversals: after reversing prefix l, extending to
  // l+1 only needs one more flip of the already-reversed prefix; but for
  // clarity (and since n <= 12) reverse from the original each time.
  std::uint8_t b[64];
  for (unsigned l = 2; l <= n_; ++l) {
    for (unsigned i = 0; i < l; ++i) b[i] = a[l - 1 - i];
    for (unsigned i = l; i < n_; ++i) b[i] = a[i];
    out.push_back(static_cast<Node>(codec_.rank(b)));
  }
}

}  // namespace mmdiag
