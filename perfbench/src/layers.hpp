// Per-layer measurement for the traced runs (--trace 1).
//
// LayerMetrics is the full per-layer metric set; every traced run prints
// all of it. A layer the workload never calls (the thread pool on a
// single-client loop, churn on the engine workloads) reports 0.
//
// replay_phases re-runs one MM* request's §5 phases through the public
// SetBuilder entry points and checks the replay against the Diagnoser's own
// result: probe count, look-ups summing exactly to DiagnosisResult::lookups,
// and the §6 bound on the final run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "core/set_builder.hpp"
#include "engine/calibration.hpp"
#include "engine/engine.hpp"

namespace perfbench {

struct LayerMetrics {
  // engine
  double cache_hit_ratio = 0;
  double warm_lookup_ns = 0;
  double diagnoser_build_us = 0;
  // engine/calibration + core/certified_partition
  double calibration_build_s = 0;
  double calibration_lookups = 0;
  double components_checked = 0;
  double graph_build_s = 0;
  // core/set_builder (per replayed request)
  double probe_us = 0;
  double probes_per_request = 0;
  double probe_lookups = 0;
  double final_us = 0;
  double final_lookups = 0;
  double final_bound_slack = 0;
  // core/diagnoser
  double boundary_us = 0;
  double cohort_us_per_syndrome = 0;
  double cohort_vs_scalar = 0;
  // util/thread_pool
  double pool_speedup = 0;
  double pool_efficiency = 0;
  // core/directed_diagnoser
  double directed_solve_us = 0;
  double directed_local_ns = 0;
  double local_definite_ratio = 0;
  // churn
  double churn_apply_us = 0;
  double churn_apply_p99_us = 0;
  double recertified_per_apply = 0;
  double delta_reuse_ratio = 0;
  double churn_lookups_per_read = 0;
  // trace
  double trace_coverage = 0;
  double trace_overhead = 0;

  void emit(Report& report) const;
};

/// Sums of the §5 replay over the requests it covered.
struct DriverReplay {
  std::size_t requests = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_lookups = 0;
  std::uint64_t final_lookups = 0;
  std::vector<double> slack;  // §6 bound minus final-run look-ups

  std::size_t timed = 0;
  double probe_us = 0;
  double final_us = 0;
  double boundary_us = 0;  // diagnose time minus the replayed runs

  /// One request's phase times: phase 3 is what the replayed runs leave of
  /// the Diagnoser's own time.
  void add_times(double diagnose_us, double probe, double final_run) {
    ++timed;
    probe_us += probe;
    final_us += final_run;
    boundary_us += diagnose_us - probe - final_run;
  }
  void fill(LayerMetrics& m) const;
};

struct ReplayTimes {
  double probe_us = 0;  // every probe run of the request
  double final_us = 0;
};

/// Replays `result` — the Diagnoser's answer for `oracle` — as its probe
/// runs and final run on the caller's builders (`probe` under the
/// calibration rule, `final_run` under the diagnoser's final rule). Records
/// one span per Set_Builder run, adds the counts to `out`, reports every
/// accounting mismatch of request `request` as a wrong answer, and returns
/// the runs' times.
template <class O, class GV>
ReplayTimes replay_phases(mmdiag::SetBuilder& probe,
                          mmdiag::SetBuilder& final_run, const GV& graph,
                          const mmdiag::CertifiedPartition& partition,
                          const O& oracle, const mmdiag::DiagnosisResult& result,
                          Tracer& tracer, std::size_t request,
                          DriverReplay& out, Report& report) {
  const mmdiag::PartitionPlan& plan = *partition.plan;
  const unsigned delta = partition.delta;
  const std::uint32_t probe_name = tracer.name("set_builder.run_restricted");
  const std::uint32_t final_name = tracer.name("set_builder.run");
  const std::size_t max_probes = std::min<std::size_t>(
      plan.num_components(), std::size_t{delta} + 1);

  ReplayTimes times;
  std::uint64_t probe_lookups = 0;
  std::size_t probes = 0;
  std::uint32_t certified = 0;
  bool found = false;
  for (std::size_t c = 0; c < max_probes && !found; ++c) {
    const auto comp = static_cast<std::uint32_t>(c);
    oracle.reset_lookups();
    const std::uint32_t span = tracer.open(probe_name);
    const auto run =
        probe.run_restricted(oracle, plan.seed_of(c), delta, plan, comp);
    tracer.close(span);
    times.probe_us += tracer.span_us(span);
    probe_lookups += oracle.lookups();
    ++probes;
    if (run.all_healthy) {
      certified = comp;
      found = true;
    }
  }
  const std::string tag = " (request " + std::to_string(request) + ")";
  if (probes != result.probes) {
    report.wrong("replayed " + std::to_string(probes) + " probes, diagnoser ran " +
                 std::to_string(result.probes) + tag);
  }
  if (!found) {
    if (result.success) report.wrong("replay certified no component" + tag);
    return times;
  }

  oracle.reset_lookups();
  const std::uint32_t span = tracer.open(final_name);
  const auto full = final_run.run(oracle, plan.seed_of(certified), delta);
  tracer.close(span);
  const std::uint64_t final_lookups = oracle.lookups();
  times.final_us = tracer.span_us(span);

  if (probe_lookups + final_lookups != result.lookups) {
    report.wrong("replayed look-ups " + std::to_string(probe_lookups) + " + " +
                 std::to_string(final_lookups) + " != diagnoser's " +
                 std::to_string(result.lookups) + tag);
  }
  // §6: the final run consults at most (Δ-1)(Δ/2 + |U_r| - 1) results;
  // doubled to stay in integers for odd Δ.
  const std::uint64_t d = graph.max_degree();
  const std::uint64_t members = full.members.size();
  const std::uint64_t bound2 = (d - 1) * (d + 2 * members - 2);
  if (2 * final_lookups > bound2) {
    report.wrong("final run spent " + std::to_string(final_lookups) +
                 " look-ups, above the §6 bound " +
                 std::to_string(static_cast<double>(bound2) / 2) + tag);
  }
  out.slack.push_back(static_cast<double>(bound2) / 2 -
                      static_cast<double>(final_lookups));
  ++out.requests;
  out.probes += probes;
  out.probe_lookups += probe_lookups;
  out.final_lookups += final_lookups;
  return times;
}

/// Counts one answer: a successful one must name exactly `truth`, or the
/// run fails.
void check_answer(Report& report, const mmdiag::DiagnosisResult& result,
                  const std::vector<mmdiag::Node>& truth, std::size_t request);

/// The engine's own entry points on a warm engine: the calibration cache
/// hit ratio so far, then a warm calibration() and a make_diagnoser() per
/// spec under `options`, repeated, as medians.
void measure_engine(mmdiag::DiagnosisEngine& engine,
                    const std::vector<std::string>& specs,
                    const mmdiag::DiagnoserOptions& options, LayerMetrics& m);

/// Rebuilds one MM* calibration outside the engine — the graph (or implicit
/// view) on its own, then build_calibration — and adds its cost to `m`.
void replay_calibration(const std::string& spec, unsigned delta,
                        mmdiag::GraphMode mode, LayerMetrics& m);

}  // namespace perfbench
