// The k-ary n-cube Q^k_n (k >= 3).
//
// Nodes: Z_k^n; u ~ v iff they differ by ±1 (mod k) in exactly one
// coordinate. Regular of degree 2n, κ = 2n (Bose et al. [5]);
// diagnosability 2n by Chang et al. [6] except for the small cases the
// paper excludes: (k,n) ∈ {(3,2),(3,3),(3,4),(4,2),(4,3),(5,2)}.
#pragma once

#include <memory>

#include "topology/topology.hpp"
#include "util/mixed_radix.hpp"

namespace mmdiag {

class KAryNCube : public Topology {
 public:
  KAryNCube(unsigned n, unsigned k);

  [[nodiscard]] TopologyInfo info() const override;
  void neighbors(Node u, std::vector<Node>& out) const override;
  [[nodiscard]] std::string node_label(Node u) const override;
  [[nodiscard]] std::vector<std::shared_ptr<const PartitionPlan>>
  partition_plans() const override;
  [[nodiscard]] std::vector<unsigned> params() const override {
    return {n_, k_};
  }

  [[nodiscard]] unsigned n() const noexcept { return n_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }

  // Closed-form implicit adjacency: each dimension contributes the ±1
  // (mod k) neighbours by digit arithmetic on the rank itself; sorting the
  // 2n candidates (or counting those below v) recovers the CSR order in
  // O(Δ) with no decode table.
  [[nodiscard]] unsigned degree(Node u) const override;
  unsigned sorted_neighbors(Node u, Node* out) const override;
  [[nodiscard]] Node neighbor(Node u, unsigned p) const override;
  [[nodiscard]] int neighbor_position(Node u, Node v) const override;

  // Static forms of the same arithmetic, usable without an instance.
  static unsigned sorted_neighbors_of(unsigned n, unsigned k, Node u,
                                      Node* out);
  [[nodiscard]] static Node neighbor_of(unsigned n, unsigned k, Node u,
                                        unsigned p);
  [[nodiscard]] static int position_of(unsigned n, unsigned k, Node u, Node v);

 protected:
  [[nodiscard]] bool excluded_small_case() const;

  unsigned n_;
  unsigned k_;
  TupleCodec codec_;
};

}  // namespace mmdiag
