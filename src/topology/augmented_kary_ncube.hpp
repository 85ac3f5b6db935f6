// The augmented k-ary n-cube AQ_{n,k} (Xiang & Stewart [25]).
//
// Z_k^n with the k-ary n-cube edges u ~ u ± e_i (1 <= i <= n) plus the
// "augmenting" edges u ~ u ± (e_1 + e_2 + ... + e_i) for 2 <= i <= n,
// mirroring how the augmented cube extends Q_n with prefix-complement
// edges. Regular of degree 4n-2, κ = 4n-2 (verified computationally on
// small instances), diagnosability 4n-2 except (n,k) = (2,3).
#pragma once

#include "topology/kary_ncube.hpp"

namespace mmdiag {

class AugmentedKAryNCube final : public KAryNCube {
 public:
  AugmentedKAryNCube(unsigned n, unsigned k);

  [[nodiscard]] TopologyInfo info() const override;
  void neighbors(Node u, std::vector<Node>& out) const override;

  // The augmenting edges invalidate KAryNCube's ±e_i closed forms, so the
  // implicit-adjacency API must fall back to the generic enumerate-and-sort
  // path rather than inherit the base class's formulas.
  [[nodiscard]] unsigned degree(Node u) const override {
    return Topology::degree(u);
  }
  unsigned sorted_neighbors(Node u, Node* out) const override {
    return Topology::sorted_neighbors(u, out);
  }
  [[nodiscard]] Node neighbor(Node u, unsigned p) const override {
    return Topology::neighbor(u, p);
  }
  [[nodiscard]] int neighbor_position(Node u, Node v) const override {
    return Topology::neighbor_position(u, v);
  }
};

}  // namespace mmdiag
