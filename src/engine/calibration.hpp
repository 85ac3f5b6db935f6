// Calibration — the immutable per-instance bundle the engine shares.
//
// Everything fault-independent about one topology instance lives here: the
// Topology (adjacency arithmetic, constants), its materialised CSR graph,
// and the certified partition with the ParentRule/delta it was calibrated
// under. Building one is the dominant setup cost of the §5 driver, which is
// exactly why the engine caches them; once built, a Calibration is
// immutable and shared by shared_ptr, so a cache eviction can never
// invalidate a bundle a Diagnoser is still using.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/certified_partition.hpp"
#include "graph/graph.hpp"
#include "graph/implicit_graph.hpp"
#include "topology/topology.hpp"
#include "util/enum_names.hpp"

namespace mmdiag {

// GraphMode (and its name helpers) lives in util/enum_names.hpp. kAuto
// picks kImplicit for implicit-capable topologies at or above
// kImplicitAutoNodeThreshold nodes — where the CSR arrays start to
// dominate memory — and kCsr below it, keeping small instances on the
// path that also serves materialised-syndrome (TableOracle) requests.

inline constexpr std::uint64_t kImplicitAutoNodeThreshold = std::uint64_t{1}
                                                            << 17;

[[nodiscard]] inline bool resolve_implicit_mode(GraphMode mode,
                                                const TopologyInfo& info) {
  switch (mode) {
    case GraphMode::kCsr:
      return false;
    case GraphMode::kImplicit:
      return true;
    case GraphMode::kAuto:
      break;
  }
  return info.num_nodes >= kImplicitAutoNodeThreshold &&
         info.degree <= ImplicitGraph::kMaxDegree;
}

struct Calibration {
  std::string spec;  // canonical Topology::spec() — the cache-key stem
  std::shared_ptr<const Topology> topology;
  /// The test semantics this bundle serves. MM* bundles carry a certified
  /// partition; directed (PMC/BGM) bundles skip certification — the §5
  /// probe machinery is comparison-model-specific — and carry only the
  /// delta/rule parameters in an empty partition.
  DiagnosisModel model = DiagnosisModel::kMMStar;
  Graph graph;  // empty when is_implicit()
  std::shared_ptr<const ImplicitGraph> implicit_view;  // null when CSR
  CertifiedPartition partition;  // carries its calibration rule and delta
  double build_seconds = 0;      // graph build + partition calibration cost

  [[nodiscard]] unsigned delta() const noexcept { return partition.delta; }
  [[nodiscard]] ParentRule rule() const noexcept { return partition.rule; }
  [[nodiscard]] bool is_implicit() const noexcept {
    return implicit_view != nullptr;
  }
  [[nodiscard]] bool is_directed() const noexcept {
    return is_directed_model(model);
  }
};

/// An aliasing handle to the bundle's graph: the pointee is
/// `&calibration->graph` but the control block is the whole Calibration, so
/// handing this to the shared-ownership Diagnoser constructor keeps
/// Topology and partition alive too.
[[nodiscard]] inline std::shared_ptr<const Graph> graph_handle(
    std::shared_ptr<const Calibration> calibration) {
  const Graph* graph = &calibration->graph;
  return std::shared_ptr<const Graph>(std::move(calibration), graph);
}

/// The implicit-view counterpart of graph_handle. The view already owns the
/// topology through its own shared_ptr, so the handle keeps everything a
/// Diagnoser needs alive.
[[nodiscard]] inline std::shared_ptr<const ImplicitGraph> implicit_handle(
    const std::shared_ptr<const Calibration>& calibration) {
  return calibration->implicit_view;
}

/// Build a bundle from an already-parsed topology. `delta` = 0 resolves to
/// topology->default_fault_bound() (throws DiagnosisUnsupportedError when
/// that is unknown, with the same guidance the Diagnoser gives); non-zero
/// delta is used as-is. Throws DiagnosisUnsupportedError when no partition
/// plan certifies the bound under `rule`. `mode` selects the GraphView: in
/// implicit mode no edge is ever materialised — calibration itself runs
/// through the closed-form adjacency.
///
/// `model` tags the bundle's test semantics. Directed models (kPMC/kBGM)
/// need no partition certification — their drivers deduce from per-arc
/// outcomes, not Set_Builder probes — so the bundle materialises the CSR
/// graph (directed solvers read adjacency both ways; `mode` must not be
/// kImplicit, throws std::invalid_argument) and records delta/rule in an
/// uncertified partition.
[[nodiscard]] std::shared_ptr<const Calibration> build_calibration(
    std::unique_ptr<const Topology> topology, unsigned delta, ParentRule rule,
    bool validate_all, GraphMode mode = GraphMode::kCsr,
    DiagnosisModel model = DiagnosisModel::kMMStar);

}  // namespace mmdiag
