// Topology: an interconnection-network family instance.
//
// A topology names its nodes densely in [0, N), computes adjacency
// arithmetically (so graphs need not be materialised to know structure), and
// publishes the graph-theoretic constants the paper's theorems consume:
// regular degree, connectivity κ, and diagnosability δ under the comparison
// (MM) model, with the validity conditions of §5.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "topology/partition.hpp"
#include "util/types.hpp"

namespace mmdiag {

struct TopologyInfo {
  std::string name;            // instance name, e.g. "Q7", "CQ8", "S(7,3)"
  std::string family;          // family key, e.g. "hypercube"
  std::uint64_t num_nodes = 0;
  unsigned degree = 0;         // regular degree (all §5 families are regular)
  unsigned connectivity = 0;   // published κ
  unsigned diagnosability = 0; // published δ under the MM model; 0 = unknown
};

class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual TopologyInfo info() const = 0;

  /// Appends the neighbours of u to out (out is cleared first).
  virtual void neighbors(Node u, std::vector<Node>& out) const = 0;

  /// Human-readable node name (bit-string, tuple, or arrangement).
  [[nodiscard]] virtual std::string node_label(Node u) const = 0;

  /// Partition plans the paper's §5 driver may use, ordered finest first
  /// (most components). The certified-partition search walks this list.
  [[nodiscard]] virtual std::vector<std::shared_ptr<const PartitionPlan>>
  partition_plans() const = 0;

  /// The registry parameters of this instance, in the order
  /// make_topology(family, params) expects them.
  [[nodiscard]] virtual std::vector<unsigned> params() const = 0;

  /// Canonical registry spec, "family p1 [p2]". Round-trip guarantee:
  /// make_topology_from_spec(t.spec()) reconstructs an instance with the
  /// same family and params, and parsing any whitespace/zero-padded variant
  /// of a spec canonicalises to the same string — which is what makes the
  /// engine's calibration cache key stable across entry points.
  [[nodiscard]] std::string spec() const;

  /// The fault bound the paper's theorem for this family supports.
  /// Usually equals diagnosability; arrangement graphs (Theorem 7) only
  /// support n-1.
  [[nodiscard]] virtual unsigned default_fault_bound() const {
    return info().diagnosability;
  }

  /// Materialise the adjacency as a CSR graph (validates symmetry).
  [[nodiscard]] Graph build_graph() const;

  /// Convenience: neighbours as a fresh vector.
  [[nodiscard]] std::vector<Node> neighbors(Node u) const {
    std::vector<Node> out;
    neighbors(u, out);
    return out;
  }

  // --- Implicit (closed-form) adjacency --------------------------------------
  // The same queries a CSR Graph answers from its arrays, answered from the
  // family's adjacency arithmetic instead. The *sorted-ascending* order is
  // part of the contract: it is exactly the order build_graph() stores, so a
  // solver driven through ImplicitGraph consults identical (node, position)
  // pairs — and therefore identical syndrome bits — as one driven through
  // the materialised CSR. Generic fallbacks enumerate-and-sort through the
  // virtual neighbors() (thread-local scratch, no per-call allocation in
  // steady state); families with closed forms override them (Hypercube in
  // O(1)/O(Δ) popcount arithmetic, KAryNCube in O(Δ) digit arithmetic).
  // A mirror position (u's place in adj(v) for v = neighbor(u, p)) needs no
  // query of its own: ImplicitGraph answers it as neighbor_position(v, u)
  // from the v its caller already holds.

  /// Number of neighbours of u (= degree; all §5 families are regular).
  [[nodiscard]] virtual unsigned degree(Node u) const;

  /// Fills out[0..degree) with the neighbours of u in ascending id order —
  /// the CSR adjacency order. Returns the count. out must have room for
  /// degree(u) entries.
  virtual unsigned sorted_neighbors(Node u, Node* out) const;

  /// The p-th neighbour of u in ascending order. Precondition: p < degree(u).
  [[nodiscard]] virtual Node neighbor(Node u, unsigned p) const;

  /// Position of v in u's ascending adjacency, or -1 if u !~ v.
  [[nodiscard]] virtual int neighbor_position(Node u, Node v) const;
};

/// Diagnosability via Chang–Lai–Tan–Hsu [6]: a t-regular, t-connected graph
/// with at least 2t+3 nodes has MM-model diagnosability t. Returns 0 when
/// the hypothesis fails.
[[nodiscard]] unsigned diagnosability_by_chang(std::uint64_t num_nodes,
                                               unsigned degree,
                                               unsigned connectivity);

}  // namespace mmdiag
