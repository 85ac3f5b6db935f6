// ImplicitGraph: the hypercube's GraphView, which never materialises edges.
//
// Q_n's sorted adjacency is bit arithmetic on the node id, so the whole view
// is the dimension: O(1) memory regardless of node count — hypercube 20
// (2^20 nodes, 2^20·20 directed edges) costs the same few bytes as
// hypercube 7. The ascending neighbour order of u is the set bits of u by
// descending index (each flip decreases u), then the unset bits by
// ascending index (each flip increases u): exactly the order the CSR Graph
// stores, so a solver driven through either view consults identical
// (node, position) syndrome bits. No other family has a view: each solves
// faster on its CSR, so the constructors reject them.
//
// neighbors() returns a small by-value array rather than a span into
// storage; the solver templates consume either shape identically. Because
// every neighbour is a single-bit flip, a node-indexed bitmap answers
// "which of u's neighbours are in the set" from its words alone
// (clear_neighbor_dims): one load of u's own word for dimensions 0-5 and
// one load per higher dimension, with no neighbour list built. The same
// loads answer it for a whole word of 64 nodes at once (neighbor_words).
// Bit counts use an inline branch-free count rather than std::popcount,
// which at the baseline x86-64 target compiles to a libgcc call. No mutable
// state: the view is safe to share across the engine's worker threads.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "topology/hypercube.hpp"
#include "topology/topology.hpp"
#include "util/types.hpp"

namespace mmdiag {

class ImplicitGraph {
 public:
  /// The neighbours of one node, by value. Indexable/iterable like the
  /// std::span the CSR Graph returns.
  class AdjacencyList {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] Node operator[](std::size_t i) const noexcept {
      return node_[i];
    }
    [[nodiscard]] const Node* begin() const noexcept { return node_; }
    [[nodiscard]] const Node* end() const noexcept { return node_ + count_; }

   private:
    friend class ImplicitGraph;
    Node node_[std::numeric_limits<Node>::digits];  // Q_n has n <= 32
    unsigned count_ = 0;
  };

  /// Whether `topology` has this view: only a Hypercube does.
  [[nodiscard]] static bool supports(const Topology& topology) noexcept {
    return dynamic_cast<const Hypercube*>(&topology) != nullptr;
  }

  /// Both constructors read the dimension and keep no reference to the
  /// topology. They throw std::invalid_argument, naming the family, for any
  /// topology that is not a Hypercube.
  explicit ImplicitGraph(const std::shared_ptr<const Topology>& topology)
      : ImplicitGraph(*topology) {}
  explicit ImplicitGraph(const Topology& topology)
      : n_(dimension_of(topology)), mask_((Node{1} << n_) - 1) {}

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return std::size_t{mask_} + 1;
  }
  [[nodiscard]] unsigned degree(Node /*u*/) const noexcept { return n_; }
  [[nodiscard]] unsigned max_degree() const noexcept { return n_; }
  [[nodiscard]] unsigned min_degree() const noexcept { return n_; }

  [[nodiscard]] AdjacencyList neighbors(Node u) const noexcept {
    AdjacencyList adj;
    // Set bits, descending index: the neighbours below u, ascending.
    for (Node bits = u; bits != 0;) {
      const Node high = Node{1} << (31u - std::countl_zero(bits));
      adj.node_[adj.count_++] = u ^ high;
      bits ^= high;
    }
    // Unset bits, ascending index: the neighbours above u, ascending.
    for (Node bits = ~u & mask_; bits != 0; bits &= bits - 1) {
      adj.node_[adj.count_++] = u ^ (Node{1} << std::countr_zero(bits));
    }
    return adj;
  }

  /// The p-th neighbour of u in ascending order. Precondition: p < n.
  [[nodiscard]] Node neighbor(Node u, unsigned p) const noexcept {
    const unsigned set = bit_count(u);
    // The p-th in descending set-bit order is the (set - p)-th lowest set
    // bit; past the set bits comes the (p - set + 1)-th lowest unset bit.
    return p < set ? u ^ nth_lowest_bit(u, set - p)
                   : u ^ nth_lowest_bit(~u & mask_, p - set + 1);
  }

  /// Position of v in u's ascending adjacency, or -1 if u !~ v.
  [[nodiscard]] int neighbor_position(Node u, Node v) const noexcept {
    const Node d = u ^ v;
    if (d == 0 || (d & (d - 1)) != 0 || d > mask_) return -1;
    return static_cast<int>(
        dimension_position(u, static_cast<unsigned>(std::countr_zero(d))));
  }

  /// Position of u ^ 2^d in u's ascending adjacency. Precondition: d < n.
  [[nodiscard]] unsigned dimension_position(Node u, unsigned d) const noexcept {
    const Node bit = Node{1} << d;
    if ((u & bit) != 0) {
      // Set bit d: preceded in the ascending order by the set bits above it.
      return bit_count(u >> d >> 1);
    }
    // Unset bit d: preceded by all set bits plus the unset bits below it.
    return bit_count(u) + d - bit_count(u & (bit - 1));
  }

  /// The dimensions d < k (bit d = the neighbour u ^ 2^d) whose
  /// neighbour's bit is clear in `words`, a node-indexed bitmap of
  /// num_nodes() bits. Dimensions 0-5 flip a bit inside u's own word, read
  /// with one load; each dimension from 6 up to k-1 flips a bit of the word
  /// index and costs one load; no dimension from k up is read.
  /// Precondition: k <= n.
  [[nodiscard]] std::uint32_t clear_neighbor_dims(
      Node u, std::span<const std::uint64_t> words,
      unsigned k) const noexcept {
    const Node word = u >> 6;
    const unsigned bit = u & 63u;
    const std::uint64_t mask = std::uint64_t{1} << bit;
    // Highest dimension first, each outcome shifted in at the bottom: no
    // variable shift inside the loop.
    std::uint32_t high = 0;
    for (Node flip = k > 6 ? Node{1} << (k - 7) : 0; flip != 0; flip >>= 1) {
      high = (high << 1) |
             static_cast<std::uint32_t>((words[word ^ flip] & mask) == 0);
    }
    const std::uint64_t own = ~words[word];
    std::uint32_t low = 0;
    for (unsigned d = 0; d < 6; ++d) {
      low |= static_cast<std::uint32_t>((own >> (bit ^ (1u << d))) & 1u) << d;
    }
    return (high << 6) | (low & ((std::uint32_t{1} << std::min(k, 6u)) - 1));
  }

  /// Bit b of kDimensionClear[d] is set iff bit d of b is clear: the nodes
  /// of a word whose dimension-d neighbour (d < 6) lies above them.
  static constexpr std::uint64_t kDimensionClear[6] = {
      0x5555555555555555u, 0x3333333333333333u, 0x0F0F0F0F0F0F0F0Fu,
      0x00FF00FF00FF00FFu, 0x0000FFFF0000FFFFu, 0x00000000FFFFFFFFu};

  /// The word-level form of clear_neighbor_dims, for the 64 nodes of word
  /// `word` of `words`, a node-indexed bitmap of num_nodes() bits: out[d]
  /// gets, at bit b, the bitmap's bit of node (64·word + b) ^ 2^d, for every
  /// d < n. Dimensions 0-5 are swaps inside the word's own bits; each
  /// higher dimension is one load of word ^ 2^(d-6). Returns the OR of
  /// out[0..n), the nodes of the word with any neighbour in the bitmap.
  [[nodiscard]] std::uint64_t neighbor_words(
      Node word, std::span<const std::uint64_t> words,
      std::uint64_t* out) const noexcept {
    const std::uint64_t own = words[word];
    std::uint64_t any = 0;
    const unsigned low = std::min(n_, 6u);
    for (unsigned d = 0; d < low; ++d) {
      const unsigned s = 1u << d;
      const std::uint64_t below = kDimensionClear[d];
      out[d] = ((own & below) << s) | ((own >> s) & below);
      any |= out[d];
    }
    for (unsigned d = 6; d < n_; ++d) {
      out[d] = words[word ^ (Node{1} << (d - 6))];
      any |= out[d];
    }
    return any;
  }

  /// The view's whole footprint — contrast with Graph::memory_bytes().
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return sizeof(*this);
  }

  /// What the CSR representation of the same topology would cost.
  [[nodiscard]] std::uint64_t csr_bytes_estimate() const noexcept {
    return csr_memory_bytes_estimate(num_nodes(), n_);
  }

 private:
  static unsigned dimension_of(const Topology& topology) {
    const auto* cube = dynamic_cast<const Hypercube*>(&topology);
    if (cube == nullptr) {
      throw std::invalid_argument("ImplicitGraph: family '" +
                                  topology.info().family +
                                  "' has no implicit view; only the "
                                  "hypercube has one");
    }
    return cube->dimension();
  }

  /// Set bits of x: the branch-free SWAR count (Hacker's Delight 5-2).
  static unsigned bit_count(Node x) noexcept {
    x -= (x >> 1) & 0x55555555u;
    x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
    x = (x + (x >> 4)) & 0x0F0F0F0Fu;
    return (x * 0x01010101u) >> 24;
  }

  /// The r-th lowest set bit of x (r is 1-indexed), as a one-bit mask.
  static Node nth_lowest_bit(Node x, unsigned r) noexcept {
    for (unsigned i = 1; i < r; ++i) x &= x - 1;
    return Node{1} << std::countr_zero(x);
  }

  unsigned n_;
  Node mask_;
};

static_assert(GraphView<Graph>);
static_assert(GraphView<ImplicitGraph>);

}  // namespace mmdiag
