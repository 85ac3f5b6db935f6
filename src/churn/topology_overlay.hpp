// TopologyOverlay — node/edge remove+repair deltas over an immutable view.
//
// Real deployments degrade continuously: nodes are pulled for repair, links
// fail, both come back. Rebuilding the CSR (or re-deriving the implicit
// adjacency) on every change would renumber adjacency positions — and
// syndrome bits are addressed by (node, position), so every stored syndrome
// and every calibrated partition would be invalidated. The overlay therefore
// never rebuilds anything: the base Graph/ImplicitGraph stays frozen (all
// positions stable) and churn is a mask on top of it — a removed-node bitset
// plus a per-node 64-bit dead-edge mask (bit p set = the edge to the p-th
// base neighbour is unusable, because that neighbour is removed or the edge
// itself was). OverlayOracle turns the mask into syndrome semantics: any
// test involving a dead element reads as 1 (fail), so removed nodes are
// never admitted by Set_Builder and the solver hot paths need no changes.
//
// Every mutation validates (std::invalid_argument) and is applied with the
// strong guarantee: a rejected delta leaves the overlay untouched.
// Double-remove, repair of a live node, repair of a never-removed edge, and
// out-of-range ids are all rejected rather than silently absorbed — churn
// streams replayed against a diverged shadow state must fail loudly.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/implicit_graph.hpp"
#include "util/types.hpp"

namespace mmdiag {

enum class ChurnOp : std::uint8_t {
  kRemoveNode,
  kRepairNode,
  kRemoveEdge,
  kRepairEdge,
};

[[nodiscard]] std::string to_string(ChurnOp op);

/// One topology mutation. `v` is meaningful for the edge ops only.
struct ChurnDelta {
  ChurnOp op = ChurnOp::kRemoveNode;
  Node u = 0;
  Node v = 0;
};

class TopologyOverlay {
 public:
  /// The overlay packs each node's dead-edge state into one word, so the
  /// base view must have degree <= 64 (the same bound the word-row solver
  /// paths and the implicit view already live under).
  explicit TopologyOverlay(const Graph& base);
  explicit TopologyOverlay(const ImplicitGraph& base);

  /// Dispatch to the matching mutation below.
  void apply(const ChurnDelta& delta);

  /// Remove a live node: every incident edge goes dead as seen from its
  /// neighbours. Throws std::invalid_argument on out-of-range ids and on
  /// removing an already-removed node.
  void remove_node(Node u);

  /// Repair a removed node: incident edges come back unless the other
  /// endpoint is removed or the edge itself was explicitly removed. Throws
  /// std::invalid_argument on out-of-range ids and on repairing a node that
  /// is not removed (repair-of-live-node).
  void repair_node(Node u);

  /// Explicitly remove a base edge (u, v). Independent of node liveness —
  /// a node repair never resurrects an explicitly removed edge. Throws
  /// std::invalid_argument on out-of-range ids, non-adjacent pairs, and
  /// already-removed edges.
  void remove_edge(Node u, Node v);

  /// Repair an explicitly removed edge; it becomes usable again once both
  /// endpoints are live. Throws std::invalid_argument on out-of-range ids,
  /// non-adjacent pairs, and edges that were never explicitly removed.
  void repair_edge(Node u, Node v);

  [[nodiscard]] bool node_removed(Node u) const noexcept {
    return (removed_[u >> 6] >> (u & 63)) & 1;
  }

  /// Bit p = the edge from u to its p-th base neighbour is unusable (that
  /// neighbour is removed, or the edge was explicitly removed). Node u's
  /// own liveness is NOT encoded here — check node_removed(u) first.
  [[nodiscard]] std::uint64_t dead_mask(Node u) const noexcept {
    return dead_mask_[u];
  }

  [[nodiscard]] bool edge_removed(Node u, Node v) const noexcept {
    return removed_edges_.count(ordered(u, v)) != 0;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::uint64_t live_count() const noexcept {
    return num_nodes_ - removed_count_;
  }
  [[nodiscard]] std::uint64_t removed_count() const noexcept {
    return removed_count_;
  }
  [[nodiscard]] std::size_t removed_edge_count() const noexcept {
    return removed_edges_.size();
  }
  /// True once any delta has ever been applied (repairs do not reset it):
  /// consumers use it to tell "pristine base" from "churned but healed".
  [[nodiscard]] bool ever_churned() const noexcept { return ever_churned_; }

 private:
  static std::pair<Node, Node> ordered(Node u, Node v) noexcept {
    return u < v ? std::pair<Node, Node>{u, v} : std::pair<Node, Node>{v, u};
  }

  void check_node(Node u, const char* what) const;
  /// Position of v in u's base adjacency, throwing when not adjacent.
  [[nodiscard]] unsigned edge_position(Node u, Node v, const char* what) const;
  /// Position of u in adj(v), where v is u's neighbour at position p.
  [[nodiscard]] unsigned mirror_of(Node u, unsigned p, Node v) const;
  [[nodiscard]] unsigned degree_of(Node u) const;
  [[nodiscard]] Node neighbor_of(Node u, unsigned p) const;

  const Graph* csr_ = nullptr;  // exactly one of csr_ / implicit_ is set
  const ImplicitGraph* implicit_ = nullptr;
  std::size_t num_nodes_ = 0;
  std::uint64_t removed_count_ = 0;
  bool ever_churned_ = false;
  std::vector<std::uint64_t> removed_;    // node-indexed bitset
  std::vector<std::uint64_t> dead_mask_;  // one word per node
  std::set<std::pair<Node, Node>> removed_edges_;  // (min, max) endpoints
};

}  // namespace mmdiag
