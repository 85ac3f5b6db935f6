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
};

}  // namespace mmdiag
