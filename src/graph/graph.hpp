// Compressed-sparse-row undirected graph.
//
// This is the in-memory form every diagnosis algorithm consumes: adjacency
// lists are contiguous and sorted, so a neighbour position (needed to address
// syndrome bits s_u(v,w) by position) is a binary search, and full scans are
// cache-friendly — the O(Δ·|U_r|) bound of §4.2 relies on both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace mmdiag {

class Graph {
 public:
  Graph() = default;
  /// offsets.size() == n+1; neighbors sorted ascending within each node.
  Graph(std::vector<EdgeIndex> offsets, std::vector<Node> neighbors);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] EdgeIndex num_edges() const noexcept { return neighbors_.size() / 2; }

  // A node-less graph — default-constructed (no offsets at all) or the
  // explicit zero-node CSR (offsets == {0}) — has no offsets_[u + 1] to
  // read, so adjacency queries answer "nothing" instead of indexing out of
  // range. Node ids are only meaningful below num_nodes() otherwise.
  [[nodiscard]] std::span<const Node> neighbors(Node u) const noexcept {
    if (offsets_.size() <= 1) return {};
    return {neighbors_.data() + offsets_[u],
            neighbors_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] unsigned degree(Node u) const noexcept {
    if (offsets_.size() <= 1) return 0;
    return static_cast<unsigned>(offsets_[u + 1] - offsets_[u]);
  }

  [[nodiscard]] unsigned max_degree() const noexcept { return max_degree_; }
  [[nodiscard]] unsigned min_degree() const noexcept { return min_degree_; }

  /// The p-th neighbour of u. Precondition: p < degree(u).
  [[nodiscard]] Node neighbor(Node u, unsigned p) const noexcept {
    return neighbors_[offsets_[u] + p];
  }

  /// Position of v in u's adjacency list, or -1 if absent. O(log Δ).
  [[nodiscard]] int neighbor_position(Node u, Node v) const noexcept;

  /// Position of u in the adjacency list of its p-th neighbour, O(1) from a
  /// table precomputed at construction (an O(E) counting pass). This is the
  /// hot-path replacement for neighbor_position(v, u): Set_Builder records
  /// it once per admitted member instead of re-searching per round. Only
  /// meaningful on symmetric (undirected) adjacency, which every topology
  /// builder emits and build_graph_from_edges/generator enforce.
  [[nodiscard]] unsigned mirror_position(Node u, unsigned p) const noexcept {
    return mirror_pos_[offsets_[u] + p];
  }

  /// The GraphView form, for a caller holding v = neighbor(u, p): the
  /// table answers from (u, p) alone.
  [[nodiscard]] unsigned mirror_position(Node u, unsigned p,
                                         Node /*v*/) const noexcept {
    return mirror_position(u, p);
  }

  /// All mirror positions of u, aligned with neighbors(u).
  [[nodiscard]] std::span<const std::uint32_t> mirror_positions(Node u) const noexcept {
    if (offsets_.size() <= 1) return {};
    return {mirror_pos_.data() + offsets_[u],
            mirror_pos_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] bool has_edge(Node u, Node v) const noexcept {
    return neighbor_position(u, v) >= 0;
  }

  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return offsets_.size() * sizeof(EdgeIndex) + neighbors_.size() * sizeof(Node) +
           mirror_pos_.size() * sizeof(std::uint32_t);
  }

 private:
  std::vector<EdgeIndex> offsets_;
  std::vector<Node> neighbors_;
  std::vector<std::uint32_t> mirror_pos_;  // aligned with neighbors_
  unsigned max_degree_ = 0;
  unsigned min_degree_ = 0;
};

/// What memory_bytes() would report for a materialised CSR of a regular
/// graph with the given shape — lets the implicit path quote the cost it
/// avoided without paying it.
[[nodiscard]] constexpr std::uint64_t csr_memory_bytes_estimate(
    std::uint64_t num_nodes, unsigned degree) noexcept {
  return (num_nodes + 1) * sizeof(EdgeIndex) +
         num_nodes * degree * (sizeof(Node) + sizeof(std::uint32_t));
}

}  // namespace mmdiag
