#include "topology/hypercube.hpp"

#include <bit>
#include <stdexcept>

namespace mmdiag {

namespace {

// Bit index of the r-th lowest set bit of x (r is 1-indexed).
unsigned nth_set_bit(Node x, unsigned r) {
  for (unsigned i = 1; i < r; ++i) x &= x - 1;
  return static_cast<unsigned>(std::countr_zero(x));
}

}  // namespace

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

unsigned Hypercube::sorted_neighbors_of(unsigned n, Node u, Node* out) {
  unsigned p = 0;
  // Set bits, descending index: neighbours below u, ascending.
  for (Node bits = u; bits != 0;) {
    const unsigned hi = 31u - static_cast<unsigned>(std::countl_zero(bits));
    out[p++] = u ^ (Node{1} << hi);
    bits ^= Node{1} << hi;
  }
  // Unset bits, ascending index: neighbours above u, ascending.
  const Node mask = (n >= 32) ? ~Node{0} : ((Node{1} << n) - 1);
  for (Node bits = ~u & mask; bits != 0; bits &= bits - 1) {
    const unsigned lo = static_cast<unsigned>(std::countr_zero(bits));
    out[p++] = u ^ (Node{1} << lo);
  }
  return p;
}

Node Hypercube::neighbor_of(unsigned n, Node u, unsigned p) {
  const unsigned s = static_cast<unsigned>(std::popcount(u));
  if (p < s) {
    // p-th in descending set-bit order = (s - p)-th lowest set bit.
    return u ^ (Node{1} << nth_set_bit(u, s - p));
  }
  const Node mask = (n >= 32) ? ~Node{0} : ((Node{1} << n) - 1);
  // (p - s + 1)-th lowest unset bit.
  return u ^ (Node{1} << nth_set_bit(~u & mask, p - s + 1));
}

int Hypercube::position_of(unsigned n, Node u, Node v) {
  const Node d = u ^ v;
  if (std::popcount(d) != 1) return -1;
  const unsigned i = static_cast<unsigned>(std::countr_zero(d));
  if (i >= n) return -1;
  if ((u >> i) & 1u) {
    // Set bit i: preceded in the ascending order by the set bits above it.
    return static_cast<int>(std::popcount(u >> (i + 1)));
  }
  // Unset bit i: preceded by all set bits plus the unset bits below it.
  const unsigned s = static_cast<unsigned>(std::popcount(u));
  const unsigned below = i - static_cast<unsigned>(
                                 std::popcount(u & ((Node{1} << i) - 1)));
  return static_cast<int>(s + below);
}

unsigned Hypercube::degree(Node /*u*/) const { return n_; }

unsigned Hypercube::sorted_neighbors(Node u, Node* out) const {
  return sorted_neighbors_of(n_, u, out);
}

Node Hypercube::neighbor(Node u, unsigned p) const {
  return neighbor_of(n_, u, p);
}

int Hypercube::neighbor_position(Node u, Node v) const {
  return position_of(n_, u, v);
}

}  // namespace mmdiag
