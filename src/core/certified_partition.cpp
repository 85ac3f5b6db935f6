#include "core/certified_partition.hpp"

#include <sstream>

#include "mm/oracle.hpp"

namespace mmdiag {
namespace {

bool probe_component(SetBuilder& builder, const FaultFreeOracle& oracle,
                     const PartitionPlan& plan, std::uint32_t comp,
                     unsigned delta) {
  const auto result = builder.run_restricted(oracle, plan.seed_of(comp), delta,
                                             plan, comp);
  // Coverage proves the induced component is connected; the contributor
  // certificate proves a fault-free component will be recognised healthy.
  return result.all_healthy && result.members.size() == plan.component_size();
}

// One calibration walk for both GraphView models: the builder consults the
// same fault-free tests in the same order on either, so the accepted plan
// and calibration_lookups are identical by construction.
template <class GV>
CertifiedPartition find_certified_partition_on(const Topology& topology,
                                               const GV& graph, unsigned delta,
                                               ParentRule rule,
                                               bool validate_all) {
  const auto plans = topology.partition_plans();
  SetBuilder builder(graph, rule);
  const FaultFreeOracle oracle;
  std::ostringstream rejections;

  for (const auto& plan : plans) {
    if (plan->num_components() < static_cast<std::size_t>(delta) + 1) {
      rejections << "  " << plan->description() << ": only "
                 << plan->num_components() << " components (need "
                 << delta + 1 << ")\n";
      continue;
    }
    // A tree with more than delta internal nodes plus at least one leaf
    // needs at least delta+2 nodes; skip hopeless plans cheaply.
    if (plan->component_size() < static_cast<std::uint64_t>(delta) + 2) {
      rejections << "  " << plan->description() << ": components of "
                 << plan->component_size() << " nodes cannot exceed " << delta
                 << " contributors\n";
      continue;
    }
    const std::size_t to_check = validate_all ? plan->num_components() : 1;
    bool ok = true;
    for (std::size_t c = 0; c < to_check && ok; ++c) {
      ok = probe_component(builder, oracle, *plan, static_cast<std::uint32_t>(c),
                           delta);
    }
    if (ok) {
      CertifiedPartition cp;
      cp.plan = plan;
      cp.delta = delta;
      cp.rule = rule;
      cp.calibration_lookups = oracle.lookups();
      cp.fully_validated = validate_all;
      return cp;
    }
    rejections << "  " << plan->description()
               << ": fault-free component failed certification\n";
  }

  std::ostringstream msg;
  msg << topology.info().name << ": no partition plan certifies fault bound "
      << delta << " under rule " << to_string(rule) << "\n"
      << rejections.str();
  throw DiagnosisUnsupportedError(msg.str());
}

}  // namespace

bool component_certifies(const Graph& graph, const PartitionPlan& plan,
                         std::uint32_t comp, unsigned delta, ParentRule rule) {
  SetBuilder builder(graph, rule);
  const FaultFreeOracle oracle;
  return probe_component(builder, oracle, plan, comp, delta);
}

CertifiedPartition find_certified_partition(const Topology& topology,
                                            const Graph& graph, unsigned delta,
                                            ParentRule rule,
                                            bool validate_all) {
  return find_certified_partition_on(topology, graph, delta, rule,
                                     validate_all);
}

CertifiedPartition find_certified_partition(const Topology& topology,
                                            const ImplicitGraph& graph,
                                            unsigned delta, ParentRule rule,
                                            bool validate_all) {
  return find_certified_partition_on(topology, graph, delta, rule,
                                     validate_all);
}

}  // namespace mmdiag
