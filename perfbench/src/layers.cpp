#include "layers.hpp"

#include "graph/implicit_graph.hpp"
#include "topology/registry.hpp"

namespace perfbench {

void LayerMetrics::emit(Report& r) const {
  r.metric("engine.cache_hit_ratio", cache_hit_ratio, "ratio");
  r.metric("engine.warm_lookup_ns", warm_lookup_ns, "ns");
  r.metric("engine.diagnoser_build_us", diagnoser_build_us, "us");
  r.metric("calibration.build_s", calibration_build_s, "s");
  r.metric("calibration.lookups", calibration_lookups, "count");
  r.metric("calibration.components_checked", components_checked, "count");
  r.metric("graph.build_s", graph_build_s, "s");
  r.metric("set_builder.probe_us", probe_us, "us");
  r.metric("set_builder.probes_per_request", probes_per_request, "count");
  r.metric("set_builder.probe_lookups", probe_lookups, "count");
  r.metric("set_builder.final_us", final_us, "us");
  r.metric("set_builder.final_lookups", final_lookups, "count");
  r.metric("set_builder.final_bound_slack", final_bound_slack, "count");
  r.metric("diagnoser.boundary_us", boundary_us, "us");
  r.metric("diagnoser.cohort_us_per_syndrome", cohort_us_per_syndrome, "us");
  r.metric("diagnoser.cohort_vs_scalar", cohort_vs_scalar, "ratio");
  r.metric("thread_pool.speedup", pool_speedup, "ratio");
  r.metric("thread_pool.efficiency", pool_efficiency, "ratio");
  r.metric("directed.solve_us", directed_solve_us, "us");
  r.metric("directed.local_ns", directed_local_ns, "ns");
  r.metric("directed.local_definite_ratio", local_definite_ratio, "ratio");
  r.metric("churn.apply_us", churn_apply_us, "us");
  r.metric("churn.apply_p99_us", churn_apply_p99_us, "us");
  r.metric("churn.recertified_per_apply", recertified_per_apply, "count");
  r.metric("churn.delta_reuse_ratio", delta_reuse_ratio, "ratio");
  r.metric("churn.lookups_per_read", churn_lookups_per_read, "count");
  r.metric("trace.coverage", trace_coverage, "ratio");
  r.metric("trace.overhead", trace_overhead, "ratio");
}

void DriverReplay::fill(LayerMetrics& m) const {
  if (requests == 0 || timed == 0) return;
  const auto n = static_cast<double>(requests);
  m.probes_per_request = static_cast<double>(probes) / n;
  m.probe_lookups = static_cast<double>(probe_lookups) / n;
  m.final_lookups = static_cast<double>(final_lookups) / n;
  m.final_bound_slack = median(slack);
  const auto t = static_cast<double>(timed);
  m.probe_us = probe_us / t;
  m.final_us = final_us / t;
  m.boundary_us = boundary_us / t;
}

void check_answer(Report& report, const mmdiag::DiagnosisResult& result,
                  const std::vector<mmdiag::Node>& truth, std::size_t request) {
  if (!report.answer(result.success, result.faults == truth)) {
    report.wrong("request " + std::to_string(request) + ": diagnosed " +
                 std::to_string(result.faults.size()) + " faults, expected " +
                 std::to_string(truth.size()));
  }
}

void measure_engine(mmdiag::DiagnosisEngine& engine,
                    const std::vector<std::string>& specs,
                    const mmdiag::DiagnoserOptions& options, LayerMetrics& m) {
  const mmdiag::EngineCounters counters = engine.counters();
  m.cache_hit_ratio = ratio(static_cast<double>(counters.hits),
                            static_cast<double>(counters.hits + counters.misses));
  std::vector<double> lookup_ns;
  std::vector<double> build_us;
  for (int rep = 0; rep < 256; ++rep) {
    for (const std::string& spec : specs) {
      const std::int64_t t0 = now_ns();
      (void)engine.calibration(spec, options.delta, options.rule,
                               options.validate_all_components);
      lookup_ns.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  for (int rep = 0; rep < 32; ++rep) {
    for (const std::string& spec : specs) {
      const std::int64_t t0 = now_ns();
      (void)engine.make_diagnoser(spec, options);
      build_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }
  m.warm_lookup_ns = median(lookup_ns);
  m.diagnoser_build_us = median(build_us);
}

void replay_calibration(const std::string& spec, unsigned delta,
                        mmdiag::GraphMode mode, LayerMetrics& m) {
  std::unique_ptr<const mmdiag::Topology> topology =
      mmdiag::make_topology_from_spec(spec);
  const std::int64_t g0 = now_ns();
  if (mode == mmdiag::GraphMode::kImplicit) {
    const mmdiag::ImplicitGraph view(*topology);
    m.graph_build_s += seconds_between(g0, now_ns());
  } else {
    const mmdiag::Graph graph = topology->build_graph();
    m.graph_build_s += seconds_between(g0, now_ns());
  }
  const std::int64_t c0 = now_ns();
  const auto calibration = mmdiag::build_calibration(
      std::move(topology), delta, mmdiag::ParentRule::kSpread,
      /*validate_all=*/true, mode);
  m.calibration_build_s += seconds_between(c0, now_ns());
  const mmdiag::CertifiedPartition& partition = calibration->partition;
  m.calibration_lookups += static_cast<double>(partition.calibration_lookups);
  m.components_checked += partition.fully_validated
                              ? static_cast<double>(
                                    partition.plan->num_components())
                              : 1.0;
}

}  // namespace perfbench
