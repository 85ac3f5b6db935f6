#include "churn/topology_overlay.hpp"

#include <stdexcept>
#include <string>

namespace mmdiag {

namespace {

[[noreturn]] void throw_churn(const char* what, const std::string& detail) {
  throw std::invalid_argument(std::string("churn: ") + what + ": " + detail);
}

}  // namespace

std::string to_string(ChurnOp op) {
  switch (op) {
    case ChurnOp::kRemoveNode:
      return "remove-node";
    case ChurnOp::kRepairNode:
      return "repair-node";
    case ChurnOp::kRemoveEdge:
      return "remove-edge";
    case ChurnOp::kRepairEdge:
      return "repair-edge";
  }
  return "unknown";
}

TopologyOverlay::TopologyOverlay(const Graph& base)
    : base_(&base), num_nodes_(base.num_nodes()) {
  if (num_nodes_ > 0 && base.max_degree() > 64) {
    throw std::invalid_argument(
        "churn: TopologyOverlay requires degree <= 64, got " +
        std::to_string(base.max_degree()));
  }
  removed_.assign((num_nodes_ + 63) / 64, 0);
  dead_mask_.assign(num_nodes_, 0);
}

void TopologyOverlay::check_node(Node u, const char* what) const {
  if (u >= num_nodes_) {
    throw_churn(what, "node id " + std::to_string(u) +
                          " out of range (num_nodes = " +
                          std::to_string(num_nodes_) + ")");
  }
}

unsigned TopologyOverlay::edge_position(Node u, Node v,
                                        const char* what) const {
  check_node(u, what);
  check_node(v, what);
  if (u == v) throw_churn(what, "self-edge (" + std::to_string(u) + ")");
  const int p = base_->neighbor_position(u, v);
  if (p < 0) {
    throw_churn(what, "(" + std::to_string(u) + ", " + std::to_string(v) +
                          ") is not a base edge");
  }
  return static_cast<unsigned>(p);
}

void TopologyOverlay::apply(const ChurnDelta& delta) {
  switch (delta.op) {
    case ChurnOp::kRemoveNode:
      remove_node(delta.u);
      return;
    case ChurnOp::kRepairNode:
      repair_node(delta.u);
      return;
    case ChurnOp::kRemoveEdge:
      remove_edge(delta.u, delta.v);
      return;
    case ChurnOp::kRepairEdge:
      repair_edge(delta.u, delta.v);
      return;
  }
  throw std::invalid_argument("churn: unknown delta op");
}

void TopologyOverlay::remove_node(Node u) {
  check_node(u, "remove-node");
  if (node_removed(u)) {
    throw_churn("remove-node",
                "node " + std::to_string(u) + " is already removed");
  }
  removed_[u >> 6] |= std::uint64_t{1} << (u & 63);
  ++removed_count_;
  ever_churned_ = true;
  const unsigned deg = base_->degree(u);
  for (unsigned p = 0; p < deg; ++p) {
    const Node w = base_->neighbor(u, p);
    dead_mask_[w] |= std::uint64_t{1} << base_->mirror_position(u, p);
  }
}

void TopologyOverlay::repair_node(Node u) {
  check_node(u, "repair-node");
  if (!node_removed(u)) {
    throw_churn("repair-node",
                "node " + std::to_string(u) + " is not removed");
  }
  removed_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
  --removed_count_;
  ever_churned_ = true;
  const unsigned deg = base_->degree(u);
  for (unsigned p = 0; p < deg; ++p) {
    const Node w = base_->neighbor(u, p);
    // The edge to w comes back only if nothing else keeps it dead: w itself
    // removed, or the edge explicitly removed.
    if (!node_removed(w) && !edge_removed(u, w)) {
      dead_mask_[w] &= ~(std::uint64_t{1} << base_->mirror_position(u, p));
    }
    // u's own view of the edge: dead iff w is removed or the edge is.
    if (node_removed(w) || edge_removed(u, w)) {
      dead_mask_[u] |= std::uint64_t{1} << p;
    } else {
      dead_mask_[u] &= ~(std::uint64_t{1} << p);
    }
  }
}

void TopologyOverlay::remove_edge(Node u, Node v) {
  const unsigned pu = edge_position(u, v, "remove-edge");
  if (edge_removed(u, v)) {
    throw_churn("remove-edge", "edge (" + std::to_string(u) + ", " +
                                   std::to_string(v) + ") is already removed");
  }
  const unsigned pv = base_->mirror_position(u, pu);
  removed_edges_.insert(ordered(u, v));
  dead_mask_[u] |= std::uint64_t{1} << pu;
  dead_mask_[v] |= std::uint64_t{1} << pv;
  ever_churned_ = true;
}

void TopologyOverlay::repair_edge(Node u, Node v) {
  const unsigned pu = edge_position(u, v, "repair-edge");
  if (!edge_removed(u, v)) {
    throw_churn("repair-edge",
                "edge (" + std::to_string(u) + ", " + std::to_string(v) +
                    ") was not explicitly removed");
  }
  const unsigned pv = base_->mirror_position(u, pu);
  removed_edges_.erase(ordered(u, v));
  ever_churned_ = true;
  // The edge becomes usable from an endpoint only if the other endpoint is
  // live; a removed endpoint keeps its side of the mask set.
  if (!node_removed(v)) dead_mask_[u] &= ~(std::uint64_t{1} << pu);
  if (!node_removed(u)) dead_mask_[v] &= ~(std::uint64_t{1} << pv);
}

}  // namespace mmdiag
