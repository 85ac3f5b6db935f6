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

  /// Materialise the adjacency as a CSR graph (validates symmetry). Throws
  /// std::length_error, before allocating, when csr_memory_bytes_estimate
  /// exceeds the memory this process may use: physical memory, capped by
  /// RLIMIT_AS when one is set.
  [[nodiscard]] Graph build_graph() const;

  /// Convenience: neighbours as a fresh vector.
  [[nodiscard]] std::vector<Node> neighbors(Node u) const {
    std::vector<Node> out;
    neighbors(u, out);
    return out;
  }
};

/// Diagnosability via Chang–Lai–Tan–Hsu [6]: a t-regular, t-connected graph
/// with at least 2t+3 nodes has MM-model diagnosability t. Returns 0 when
/// the hypothesis fails.
[[nodiscard]] unsigned diagnosability_by_chang(std::uint64_t num_nodes,
                                               unsigned degree,
                                               unsigned connectivity);

}  // namespace mmdiag
