// GraphView: the adjacency interface the solver hot path is templated over.
//
// Two models exist: the CSR `Graph` (O(E) arrays, O(1)/O(log Δ) queries) and
// the hypercube's `ImplicitGraph` (O(1) state, queries answered by bit
// arithmetic on the node id). Both enumerate each node's neighbours in
// ascending id order — that shared order is what makes solver runs on the
// two views consult identical (node, position) syndrome bits and therefore
// produce bit-identical results and look-up counts.
//
// Mirror positions are answered one edge at a time, from the edge the
// solver admits: it passes the neighbour it already holds, so a view never
// re-derives that node, and the solver pays for one mirror per member it
// admits, not Δ per node it scans.
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
  // u's position in adj(v), where v = neighbor(u, p) is held by the caller.
  { g.mirror_position(u, p, v) } -> std::convertible_to<unsigned>;
  { g.memory_bytes() } -> std::convertible_to<std::uint64_t>;
};

}  // namespace mmdiag
