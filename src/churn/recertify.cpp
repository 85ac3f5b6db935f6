#include "churn/recertify.hpp"

#include <numeric>

#include "churn/overlay_oracle.hpp"
#include "mm/oracle.hpp"

namespace mmdiag {

std::string to_string(ComponentCertStatus status) {
  switch (status) {
    case ComponentCertStatus::kCertified:
      return "certified";
    case ComponentCertStatus::kDegraded:
      return "degraded";
    case ComponentCertStatus::kEmpty:
      return "empty";
  }
  return "unknown";
}

ChurnRecertifier::ChurnRecertifier(const Graph& graph,
                                   std::shared_ptr<const PartitionPlan> plan,
                                   unsigned delta, ParentRule rule)
    : builder_(graph, rule), plan_(std::move(plan)), delta_(delta) {
  num_components_ = plan_->num_components();
  // Counting sort by component over ascending node ids, so each component's
  // member list comes out sorted — the first entry that is live is the
  // deterministic recertification seed.
  const std::size_t num_nodes = graph.num_nodes();
  std::vector<std::size_t> counts(num_components_ + 1, 0);
  for (Node u = 0; u < num_nodes; ++u) {
    ++counts[plan_->component_of(u) + 1];
  }
  std::partial_sum(counts.begin(), counts.end(), counts.begin());
  comp_offsets_ = counts;
  comp_nodes_.resize(num_nodes);
  for (Node u = 0; u < num_nodes; ++u) {
    comp_nodes_[counts[plan_->component_of(u)]++] = u;
  }
}

ComponentChurnState ChurnRecertifier::recertify_component(
    const TopologyOverlay& overlay, std::uint32_t comp) {
  ComponentChurnState state;
  const std::span<const Node> members = component_members(comp);
  for (const Node u : members) {
    if (overlay.node_removed(u)) continue;
    if (state.seed == kNoNode) state.seed = u;
    ++state.live_nodes;
  }
  if (state.live_nodes == 0) {
    state.status = ComponentCertStatus::kEmpty;
    return state;
  }
  const FaultFreeOracle fault_free;
  const OverlayOracle masked(overlay, fault_free);
  masked.reset_lookups();
  const SetBuilderResult run =
      builder_.run_restricted(masked, state.seed, delta_, *plan_, comp);
  state.contributors = run.contributors;
  state.covered = run.members.size();
  state.lookups = masked.lookups();
  state.status = (run.all_healthy && state.covered == state.live_nodes)
                     ? ComponentCertStatus::kCertified
                     : ComponentCertStatus::kDegraded;
  return state;
}

std::vector<ComponentChurnState> ChurnRecertifier::recertify_all(
    const TopologyOverlay& overlay) {
  std::vector<ComponentChurnState> states;
  states.reserve(num_components_);
  for (std::uint32_t c = 0; c < num_components_; ++c) {
    states.push_back(recertify_component(overlay, c));
  }
  return states;
}

std::vector<std::uint32_t> ChurnRecertifier::touched_components(
    const ChurnDelta& delta) const {
  switch (delta.op) {
    case ChurnOp::kRemoveNode:
    case ChurnOp::kRepairNode:
      return {plan_->component_of(delta.u)};
    case ChurnOp::kRemoveEdge:
    case ChurnOp::kRepairEdge: {
      const std::uint32_t cu = plan_->component_of(delta.u);
      const std::uint32_t cv = plan_->component_of(delta.v);
      // Restricted runs never consult cross-component edges, so an edge
      // between components cannot change any certificate.
      if (cu == cv) return {cu};
      return {};
    }
  }
  return {};
}

}  // namespace mmdiag
