// ImplicitGraph: a GraphView that never materialises edges.
//
// Every adjacency query is answered by the topology's closed-form implicit
// API (Topology::sorted_neighbors / neighbor / neighbor_position), so the
// whole view is O(1) memory regardless of node count — hypercube 20 (2^20
// nodes, 2^20·20 directed edges) costs the same few dozen bytes as
// hypercube 4. neighbors() returns a small by-value array rather than a
// span into storage; the solver templates consume either shape identically.
// A mirror position is neighbor_position(v, u) on the neighbour v the
// caller already holds, so the solver computes one only for the member it
// admits and never re-derives that member. No mutable scratch: the view is
// safe to share across the engine's worker threads.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "topology/topology.hpp"
#include "util/types.hpp"

namespace mmdiag {

class ImplicitGraph {
 public:
  /// Ceiling on the degree this view supports — matches the word-level
  /// syndrome-row width, so anything the fast solver path can drive fits.
  static constexpr unsigned kMaxDegree = 64;

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
    Node node_[kMaxDegree];
    unsigned count_ = 0;
  };

  /// Owning: keeps the topology alive for the view's lifetime (the engine's
  /// calibration path hands the topology over this way).
  explicit ImplicitGraph(std::shared_ptr<const Topology> topology)
      : owner_(std::move(topology)) {
    init(owner_.get());
  }

  /// Non-owning: caller guarantees the topology outlives the view.
  explicit ImplicitGraph(const Topology& topology) { init(&topology); }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] unsigned degree(Node /*u*/) const noexcept { return degree_; }
  [[nodiscard]] unsigned max_degree() const noexcept { return degree_; }
  [[nodiscard]] unsigned min_degree() const noexcept { return degree_; }

  [[nodiscard]] AdjacencyList neighbors(Node u) const {
    AdjacencyList adj;
    adj.count_ = topo_->sorted_neighbors(u, adj.node_);
    return adj;
  }

  [[nodiscard]] Node neighbor(Node u, unsigned p) const {
    return topo_->neighbor(u, p);
  }

  [[nodiscard]] int neighbor_position(Node u, Node v) const {
    return topo_->neighbor_position(u, v);
  }

  /// u's position in adj(v). Precondition: v = neighbor(u, p). Throws
  /// std::logic_error when v's adjacency lacks u: nothing validates a
  /// topology's symmetry before this view drives a solver.
  [[nodiscard]] unsigned mirror_position(Node u, unsigned /*p*/,
                                         Node v) const {
    const int pos = topo_->neighbor_position(v, u);
    if (pos < 0) {
      throw std::logic_error("ImplicitGraph: adjacency asymmetry");
    }
    return static_cast<unsigned>(pos);
  }

  [[nodiscard]] bool has_edge(Node u, Node v) const {
    return topo_->neighbor_position(u, v) >= 0;
  }

  /// The view's whole footprint — contrast with Graph::memory_bytes().
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return sizeof(*this);
  }

  /// What the CSR representation of the same topology would cost.
  [[nodiscard]] std::uint64_t csr_bytes_estimate() const noexcept {
    return csr_memory_bytes_estimate(num_nodes_, degree_);
  }

  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }

 private:
  void init(const Topology* topology) {
    topo_ = topology;
    const TopologyInfo ti = topology->info();
    if (ti.degree > kMaxDegree) {
      throw std::invalid_argument(
          "ImplicitGraph: topology degree exceeds the 64-neighbour ceiling");
    }
    if (ti.num_nodes > static_cast<std::uint64_t>(kNoNode)) {
      throw std::invalid_argument(
          "ImplicitGraph: node count overflows 32-bit node id space");
    }
    num_nodes_ = static_cast<std::size_t>(ti.num_nodes);
    degree_ = ti.degree;
  }

  std::shared_ptr<const Topology> owner_;  // null for the non-owning ctor
  const Topology* topo_ = nullptr;
  std::size_t num_nodes_ = 0;
  unsigned degree_ = 0;
};

static_assert(GraphView<Graph>);
static_assert(GraphView<ImplicitGraph>);

}  // namespace mmdiag
