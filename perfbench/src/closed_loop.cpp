// online-lazy and scale-implicit: one client, one spec, one
// DiagnosisEngine::diagnose(spec, lazy oracle) at a time.
//
// online-lazy   hypercube 12 on the CSR view; |F| cycles 0..δ under all four
//               faulty behaviours. Per-request latency on the scalar solver.
// scale-implicit hypercube 20 (2^20 nodes) on a cold engine with default
//               options, so graph_mode auto picks the implicit view and every
//               component is validated; |F| = δ = 20. Calibration, O(N)
//               boundary scans and memory dominate here.
#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "layers.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "topology/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mmdiag;

struct LoopConfig {
  std::string spec;
  double setup_share = 0.2;   // set-up time per pass time, at most
  bool at_bound = false;      // |F| = δ always, else |F| cycles 0..δ
  std::size_t pool = 0;       // distinct requests (0 = (δ+1) · 4)
  std::size_t warmup = 0;     // untimed requests after set-up
  std::size_t replays = 0;    // requests replayed layer by layer when traced
  unsigned replay_reps = 1;   // solves and replays per replayed request
};

/// The view a pool's oracles read adjacency through: a CSR graph of their
/// own, or an implicit view.
template <class GV>
GV make_view(const std::shared_ptr<const Topology>& topology);
template <>
Graph make_view<Graph>(const std::shared_ptr<const Topology>& topology) {
  return topology->build_graph();
}
template <>
ImplicitGraph make_view<ImplicitGraph>(
    const std::shared_ptr<const Topology>& topology) {
  return ImplicitGraph(topology);
}

template <class GV>
const GV& calibration_view(const Calibration& cal);
template <>
const Graph& calibration_view<Graph>(const Calibration& cal) {
  return cal.graph;
}
template <>
const ImplicitGraph& calibration_view<ImplicitGraph>(const Calibration& cal) {
  return *cal.implicit_view;
}

template <class GV>
std::unique_ptr<Diagnoser> make_calibrated(
    const std::shared_ptr<const Calibration>& cal,
    const DiagnoserOptions& options) {
  if constexpr (std::is_same_v<GV, ImplicitGraph>) {
    return std::make_unique<Diagnoser>(implicit_handle(cal), cal->partition,
                                       options);
  } else {
    return std::make_unique<Diagnoser>(graph_handle(cal), cal->partition,
                                       options);
  }
}

/// Requests built from the seed before anything is timed.
template <class GV>
struct Pool {
  std::shared_ptr<const Topology> topology;
  GV view;
  unsigned delta = 0;
  std::deque<FaultSet> faults;
  std::deque<LazyOracleOn<GV>> oracles;

  Pool(const LoopConfig& config, std::uint64_t seed)
      : topology(make_topology_from_spec(config.spec)),
        view(make_view<GV>(topology)),
        delta(topology->default_fault_bound()) {
    Rng rng(mix64(seed, 0x0C105EDull));
    const std::size_t n = view.num_nodes();
    const std::size_t size =
        config.pool != 0 ? config.pool : std::size_t{delta + 1} * 4;
    for (std::size_t k = 0; k < size; ++k) {
      const std::size_t count = config.at_bound ? delta : k % (delta + 1);
      const FaultyBehavior behavior =
          kAllFaultyBehaviors[(config.at_bound ? k : k / (delta + 1)) % 4];
      faults.emplace_back(n, inject_uniform(n, count, rng));
      oracles.emplace_back(view, faults.back(), behavior, rng());
    }
  }
};

double setup_once(std::unique_ptr<DiagnosisEngine>& engine,
                  const std::string& spec) {
  engine.reset();
  const std::int64_t t0 = now_ns();
  engine = std::make_unique<DiagnosisEngine>();
  (void)engine->calibration(spec);
  return seconds_between(t0, now_ns());
}

template <class GV>
Report run_loop(const Options& opt, const LoopConfig& config) {
  Report report;
  report.lanes = 1;
  const Pool<GV> pool(config, opt.seed);
  const std::size_t size = pool.oracles.size();
  auto check = [&](const DiagnosisResult& r, std::size_t i, std::size_t k) {
    check_answer(report, r, pool.faults[i].nodes(), k);
  };

  std::unique_ptr<DiagnosisEngine> engine;
  (void)setup_once(engine, config.spec);
  for (std::size_t k = 0; k < config.warmup; ++k) {
    check(engine->diagnose(config.spec, pool.oracles[k % size]), k % size, k);
  }

  if (!opt.trace) {
    Timeline timeline;
    std::unique_ptr<DiagnosisEngine> cold;  // set-ups only
    std::vector<char> seen(size, 0);
    double lookups = 0;
    std::size_t k = 0;
    timeline.measure(
        opt.seconds, config.setup_share,
        [&](Timeline& t) {
          for (std::size_t i = 0; i < size; ++i, ++k) {
            const std::int64_t t0 = now_ns();
            const DiagnosisResult r =
                engine->diagnose(config.spec, pool.oracles[i]);
            t.op(static_cast<double>(now_ns() - t0) * 1e-3);
            check(r, i, k);
            if (seen[i] == 0) {
              seen[i] = 1;
              lookups += static_cast<double>(r.lookups);
            }
          }
        },
        [&] { return setup_once(cold, config.spec); });
    timeline.report(report, 1);
    report.metric("lookups_per_request", lookups / static_cast<double>(size),
                  "count");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced run, part 1: each request is served three times in rotating
  // order — by DiagnosisEngine::diagnose, and through its layers' public
  // calls (the warm calibration look-up, the Diagnoser build, the solve)
  // with span recording on and with it off.
  Tracer tracer;
  const std::uint32_t kCalibration = tracer.name("engine.calibration");
  const std::uint32_t kBuild = tracer.name("engine.diagnoser_build");
  const std::uint32_t kDiagnose = tracer.name("diagnoser.diagnose");
  const DiagnoserOptions& options = engine->options().diagnoser;
  auto through_layers = [&](std::size_t i, DiagnosisResult& r) {
    const std::uint32_t s_cal = tracer.open(kCalibration);
    const std::shared_ptr<const Calibration> cal =
        engine->calibration(config.spec);
    tracer.close(s_cal);
    const std::uint32_t s_build = tracer.open(kBuild);
    const std::unique_ptr<Diagnoser> diagnoser =
        make_calibrated<GV>(cal, options);
    tracer.close(s_build);
    const std::uint32_t s_diag = tracer.open(kDiagnose);
    r = diagnoser->diagnose(pool.oracles[i]);
    tracer.close(s_diag);
    return tracer.span_us(s_cal) + tracer.span_us(s_build) +
           tracer.span_us(s_diag);
  };
  double engine_us = 0;
  double on_us = 0;
  double off_us = 0;
  double layer_us = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t k = 0; now_ns() < deadline; ++k) {
    const std::size_t i = k % size;
    for (std::size_t slot = 0; slot < 3; ++slot) {
      const std::size_t way = (slot + k) % 3;  // 0 engine, 1 on, 2 off
      DiagnosisResult r;
      tracer.enable(way == 1);
      const std::int64_t t0 = now_ns();
      if (way == 0) {
        r = engine->diagnose(config.spec, pool.oracles[i]);
      } else {
        layer_us += through_layers(i, r);
      }
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;
      (way == 0 ? engine_us : way == 1 ? on_us : off_us) += us;
      check(r, i, k);
    }
  }
  tracer.enable(true);

  LayerMetrics m;
  m.trace_coverage = ratio(layer_us, engine_us);
  m.trace_overhead = ratio(off_us, on_us);

  // Part 2: the engine's own entry points, and the calibration rebuilt
  // outside the engine.
  measure_engine(*engine, {config.spec}, options, m);
  const std::shared_ptr<const Calibration> cal = engine->calibration(config.spec);
  replay_calibration(config.spec, 0,
                     cal->is_implicit() ? GraphMode::kImplicit : GraphMode::kCsr,
                     m);

  // Part 3: requests spread over the pool, each solved by a fresh Diagnoser
  // and then replayed as its Set_Builder runs.
  const GV& view = calibration_view<GV>(*cal);
  SetBuilder probe(view, cal->rule());
  SetBuilder final_run(view, options.final_rule);
  DriverReplay replay;
  for (std::size_t j = 0; j < config.replays; ++j) {
    const std::size_t i = j * size / config.replays;
    // Phase 3 is a difference of times, so with few requests each one is
    // solved and replayed several times, alternately, and the fastest of
    // each phase is kept.
    double diagnose_us = 0;
    ReplayTimes best;
    for (unsigned rep = 0; rep < config.replay_reps; ++rep) {
      const std::unique_ptr<Diagnoser> diagnoser =
          make_calibrated<GV>(cal, options);
      const std::uint32_t span = tracer.open(kDiagnose);
      const DiagnosisResult r = diagnoser->diagnose(pool.oracles[i]);
      tracer.close(span);
      check(r, i, i);
      const ReplayTimes t = replay_phases(probe, final_run, view,
                                          cal->partition, pool.oracles[i], r,
                                          tracer, i, replay, report);
      const bool first = rep == 0;
      diagnose_us = first ? tracer.span_us(span)
                          : std::min(diagnose_us, tracer.span_us(span));
      best.probe_us = first ? t.probe_us : std::min(best.probe_us, t.probe_us);
      best.final_us = first ? t.final_us : std::min(best.final_us, t.final_us);
    }
    replay.add_times(diagnose_us, best.probe_us, best.final_us);
  }
  replay.fill(m);
  m.emit(report);
  return report;
}

}  // namespace

Report run_online_lazy(const Options& opt) {
  LoopConfig config;
  config.spec = "hypercube 12";
  // One request per fault count and behaviour: a small pool is measured in
  // many passes, and its inputs stay in cache while the host's load shifts.
  config.warmup = 64;
  config.replays = 52;
  config.replay_reps = 4;
  return run_loop<Graph>(opt, config);
}

Report run_scale_implicit(const Options& opt) {
  LoopConfig config;
  config.spec = "hypercube 20";
  // A set-up (~4 s) outlasts a pass of the pool (~1.5 s): alternate them.
  config.setup_share = 1.0;
  config.at_bound = true;
  config.pool = 4;
  config.warmup = 1;
  config.replays = 2;
  config.replay_reps = 3;
  return run_loop<ImplicitGraph>(opt, config);
}

}  // namespace perfbench
