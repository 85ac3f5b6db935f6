// GraphView: the adjacency interface the solver hot path is templated over.
//
// Two models exist: the CSR `Graph` (O(E) arrays, O(1)/O(log Δ) queries) and
// the hypercube's `ImplicitGraph` (O(1) state, queries answered by bit
// arithmetic on the node id). Both enumerate each node's neighbours in
// ascending id order — that shared order is what makes solver runs on the
// two views consult identical (node, position) syndrome bits and therefore
// produce bit-identical results and look-up counts.
//
// How a solver records a member's tree parent is the view's own business:
// the CSR Graph answers mirror positions from its table, and the hypercube
// view needs none, because a parent is one bit flip away (Set_Builder
// stores its dimension).
#pragma once

#include <concepts>
#include <cstdint>

#include "util/types.hpp"

namespace mmdiag {

template <class G>
concept GraphView = requires(const G& g, Node u, Node v, unsigned p) {
  { g.num_nodes() } -> std::convertible_to<std::size_t>;
  { g.degree(u) } -> std::convertible_to<unsigned>;
  { g.max_degree() } -> std::convertible_to<unsigned>;
  // neighbors(u) yields an indexable, iterable range of ascending node ids.
  { g.neighbors(u)[p] } -> std::convertible_to<Node>;
  { g.neighbors(u).size() } -> std::convertible_to<std::size_t>;
  { g.neighbor(u, p) } -> std::convertible_to<Node>;
  { g.neighbor_position(u, v) } -> std::convertible_to<int>;
  { g.memory_bytes() } -> std::convertible_to<std::uint64_t>;
};

}  // namespace mmdiag
