// Calibration — the immutable per-instance bundle the engine shares.
//
// Everything fault-independent about one topology instance lives here: the
// Topology (adjacency arithmetic, constants), its graph view (a
// materialised CSR graph, or for a large hypercube the O(1)-memory
// ImplicitGraph and no CSR at all), and the certified partition with the
// ParentRule/delta it was calibrated under. Building one is the dominant setup cost of the §5 driver, which is
// exactly why the engine caches them; once built, a Calibration is
// immutable and shared by shared_ptr, so a cache eviction can never
// invalidate a bundle a Diagnoser is still using.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/certified_partition.hpp"
#include "graph/graph.hpp"
#include "graph/implicit_graph.hpp"
#include "topology/topology.hpp"
#include "util/enum_names.hpp"

namespace mmdiag {

// GraphMode lives in util/enum_names.hpp. Only the hypercube has an
// implicit view (graph/implicit_graph.hpp). kAuto picks it for hypercubes
// at or above kImplicitAutoNodeThreshold nodes, where its closed form
// solves faster than the CSR arrays and needs none of their memory, and
// kCsr for every other instance, which keeps small hypercubes on the path
// that also serves materialised-syndrome (TableOracle) requests. kImplicit
// on any other family fails in build_calibration.

inline constexpr std::uint64_t kImplicitAutoNodeThreshold = std::uint64_t{1}
                                                            << 17;

[[nodiscard]] inline bool resolve_implicit_mode(GraphMode mode,
                                                const Topology& topology) {
  switch (mode) {
    case GraphMode::kCsr:
      return false;
    case GraphMode::kImplicit:
      return true;
    case GraphMode::kAuto:
      break;
  }
  return ImplicitGraph::supports(topology) &&
         topology.info().num_nodes >= kImplicitAutoNodeThreshold;
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

/// The CSR graph of any bundle, for adjacency consumers outside the MM*
/// solve stack (the churn engine and its stream generator): the bundle's
/// own graph through graph_handle, or for an implicit bundle one built by
/// Topology::build_graph, which refuses a graph that cannot fit before
/// allocating (std::length_error).
[[nodiscard]] inline std::shared_ptr<const Graph> csr_graph(
    std::shared_ptr<const Calibration> calibration) {
  if (!calibration->is_implicit()) return graph_handle(std::move(calibration));
  return std::make_shared<const Graph>(calibration->topology->build_graph());
}

/// The implicit-view counterpart of graph_handle. The view holds nothing but
/// the dimension, so the handle alone keeps everything a Diagnoser needs
/// alive.
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
/// through the hypercube's closed-form adjacency; any other topology throws
/// std::invalid_argument there, before anything is allocated. On the CSR
/// view, a graph that cannot fit throws Topology::build_graph's
/// std::length_error.
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
