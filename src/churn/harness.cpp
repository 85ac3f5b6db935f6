#include "churn/harness.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "churn/churn_engine.hpp"
#include "mm/fault_set.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "util/rng.hpp"

namespace mmdiag {

namespace {

[[nodiscard]] std::string summarize(const ChurnDiagnosis& d) {
  std::string s = "{success=" + std::to_string(d.success) +
                  " faults=" + std::to_string(d.faults.size()) +
                  " runs=" + std::to_string(d.runs.size());
  if (!d.failure_reason.empty()) s += " reason='" + d.failure_reason + "'";
  std::size_t degraded = 0;
  for (const ComponentDiagnosis& cd : d.components) {
    if (cd.outcome == ComponentOutcome::kDegradedUncertified ||
        cd.outcome == ComponentOutcome::kDegradedUnreached) {
      ++degraded;
    }
  }
  s += " degraded=" + std::to_string(degraded) + "}";
  return s;
}

[[nodiscard]] std::string first_component_diff(const ChurnDiagnosis& warm,
                                               const ChurnDiagnosis& cold) {
  const std::size_t n =
      std::min(warm.components.size(), cold.components.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (!(warm.components[c] == cold.components[c])) {
      return " first-diff component " + std::to_string(c) + ": warm " +
             to_string(warm.components[c].outcome) + "/" +
             std::to_string(warm.components[c].probe_lookups) +
             " vs cold " + to_string(cold.components[c].outcome) + "/" +
             std::to_string(cold.components[c].probe_lookups);
    }
  }
  return "";
}

}  // namespace

ChurnHarnessReport run_churn_stream(DiagnosisEngine& engine,
                                    const ChurnStream& stream,
                                    const ChurnHarnessOptions& options) {
  ChurnHarnessReport report;
  ChurnEngineOptions churn_options;
  churn_options.delta = stream.delta;
  ChurnEngine churn(engine, stream.spec, churn_options);
  const Graph& graph = churn.graph();
  const std::size_t n = graph.num_nodes();
  // One fixed behavior seed for the whole stream: syndrome rows then depend
  // only on fault membership, so diagnose-delta's changed-row set is exactly
  // (F_prev Δ F_new) plus its neighbourhood.
  const std::uint64_t behavior_seed = mix64(stream.seed, 0xD1A6ull);

  auto changed_rows = [&](std::vector<Node> before, std::vector<Node> after) {
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    std::vector<Node> delta_nodes;
    std::set_symmetric_difference(before.begin(), before.end(), after.begin(),
                                  after.end(),
                                  std::back_inserter(delta_nodes));
    std::vector<Node> changed = delta_nodes;
    for (const Node u : delta_nodes) {
      for (const Node w : graph.neighbors(u)) changed.push_back(w);
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    return changed;
  };

  auto diverge = [&](std::size_t index, const std::string& what) {
    report.divergences.push_back("event " + std::to_string(index) + ": " +
                                 what);
  };

  auto check_cert = [&](std::size_t index) {
    const std::vector<ComponentChurnState> warm = churn.certification();
    const std::vector<ComponentChurnState> cold = churn.recertify_cold();
    report.warm_recert_components = churn.components_recertified();
    report.cold_recert_components += cold.size();
    for (std::size_t c = 0; c < warm.size(); ++c) {
      if (!(warm[c] == cold[c])) {
        diverge(index,
                "incremental certification of component " + std::to_string(c) +
                    " diverges from cold (warm " + to_string(warm[c].status) +
                    " lookups " + std::to_string(warm[c].lookups) +
                    ", cold " + to_string(cold[c].status) + " lookups " +
                    std::to_string(cold[c].lookups) + ")");
        break;
      }
    }
  };

  std::vector<Node> current_faults;
  bool have_solve = false;

  for (std::size_t index = 0; index < stream.events.size(); ++index) {
    const ChurnEvent& event = stream.events[index];
    ++report.events;
    switch (event.kind) {
      case ChurnEvent::Kind::kTopology: {
        ++report.topology_events;
        if (event.expect_error) {
          ++report.expected_errors;
          const std::vector<ComponentChurnState> before =
              churn.certification();
          const std::uint64_t live_before = churn.overlay().live_count();
          bool threw = false;
          try {
            churn.apply(event.delta);
          } catch (const std::invalid_argument&) {
            threw = true;
          }
          if (!threw) {
            diverge(index, "expected-invalid " + to_string(event.delta.op) +
                               " was accepted");
          } else if (churn.overlay().live_count() != live_before ||
                     !(churn.certification() == before)) {
            diverge(index, "rejected " + to_string(event.delta.op) +
                               " mutated state");
          }
          break;
        }
        churn.apply(event.delta);
        check_cert(index);
        break;
      }
      case ChurnEvent::Kind::kDiagnose:
      case ChurnEvent::Kind::kDiagnoseDelta: {
        const bool is_delta = event.kind == ChurnEvent::Kind::kDiagnoseDelta;
        if (is_delta) {
          ++report.delta_events;
        } else {
          ++report.diagnose_events;
        }
        const FaultSet faults(n, event.faults);
        std::unique_ptr<Syndrome> table;
        std::unique_ptr<SyndromeOracle> oracle;
        if (options.use_table_oracle) {
          table = std::make_unique<Syndrome>(generate_syndrome(
              graph, faults, options.behavior, behavior_seed));
          oracle = std::make_unique<TableOracle>(graph, *table);
        } else {
          oracle = std::make_unique<LazyOracle>(graph, faults,
                                                options.behavior,
                                                behavior_seed);
        }
        ChurnDiagnosis warm;
        if (is_delta && have_solve) {
          warm = churn.diagnose_delta(
              *oracle, changed_rows(current_faults, event.faults));
        } else {
          warm = churn.diagnose(*oracle);
        }
        const ChurnDiagnosis cold = churn.diagnose_cold(*oracle);
        if (!identical(warm, cold)) {
          diverge(index,
                  std::string(is_delta ? "diagnose-delta" : "diagnose") +
                      " warm " + summarize(warm) + " != cold " +
                      summarize(cold) + first_component_diff(warm, cold));
        }
        if (warm.reused_cache) ++report.cache_reuses;
        for (const ComponentDiagnosis& cd : warm.components) {
          if (cd.outcome == ComponentOutcome::kDegradedUncertified ||
              cd.outcome == ComponentOutcome::kDegradedUnreached) {
            ++report.degraded_components_seen;
          } else if (cd.outcome == ComponentOutcome::kEmpty) {
            ++report.empty_components_seen;
          }
        }
        current_faults = event.faults;
        have_solve = true;
        break;
      }
    }
  }
  return report;
}

}  // namespace mmdiag
