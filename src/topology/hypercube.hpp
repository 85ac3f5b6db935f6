// The n-dimensional hypercube Q_n.
//
// Nodes: {0,1}^n; u ~ v iff the addresses differ in exactly one bit.
// Regular of degree n, κ = n, diagnosability n for n >= 4 (Wang [23] /
// Chang et al. [6]).
#pragma once

#include "topology/bit_cube_base.hpp"

namespace mmdiag {

class Hypercube final : public BitCubeTopology {
 public:
  explicit Hypercube(unsigned n);

  [[nodiscard]] TopologyInfo info() const override;
  void neighbors(Node u, std::vector<Node>& out) const override;

  // Closed-form implicit adjacency. The ascending (CSR) neighbour order of u
  // is: set bits of u by descending bit index (each flip decreases u), then
  // unset bits by ascending bit index (each flip increases u).
  [[nodiscard]] unsigned degree(Node u) const override;
  unsigned sorted_neighbors(Node u, Node* out) const override;
  [[nodiscard]] Node neighbor(Node u, unsigned p) const override;
  [[nodiscard]] int neighbor_position(Node u, Node v) const override;

  // Static forms of the same arithmetic, usable without an instance.
  static unsigned sorted_neighbors_of(unsigned n, Node u, Node* out);
  [[nodiscard]] static Node neighbor_of(unsigned n, Node u, unsigned p);
  [[nodiscard]] static int position_of(unsigned n, Node u, Node v);
};

}  // namespace mmdiag
