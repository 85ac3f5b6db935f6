// serve-batch: a mixed-spec stream of materialised syndromes through
// DiagnosisEngine::serve at every hardware lane.
//
// One batch of 1024 requests is built from the seed: MM* TableOracle
// syndromes on hypercube 10, hypercube 12, star 7 and kary_ncube 5 4 (per-spec
// counts are not multiples of 64, so a scalar remainder always exists), and
// one request in sixteen directed — PMC global solves on hypercube 10 and BGM
// local_node requests on hypercube 12. The order is drawn from the seed. |F|
// cycles 0..δ per stream under all four faulty behaviours. The client serves
// the whole batch per call, back to back; latency is per serve() call.
#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/directed_diagnoser.hpp"
#include "engine/engine.hpp"
#include "layers.hpp"
#include "mm/behavior.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/syndrome.hpp"
#include "topology/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mmdiag;

constexpr std::array<const char*, 4> kSpecs = {"hypercube 10", "hypercube 12",
                                               "star 7", "kary_ncube 5 4"};
constexpr std::size_t kPmcInstance = 0;  // hypercube 10
constexpr std::size_t kBgmInstance = 1;  // hypercube 12
// Requests per stream: the four MM* specs (none a multiple of 64, so every
// spec leaves a scalar remainder), then PMC and BGM local — 1 in 16
// directed.
constexpr std::array<std::size_t, 6> kStreamSizes = {250, 230, 240, 240, 32, 32};
constexpr std::size_t kBatch = 1024;
// Cold set-ups run between passes while they have taken less than this
// share of the pass time.
constexpr double kSetupShare = 0.2;
constexpr std::size_t kCohort = BitSlicedOracle::kMaxLanes;

enum class Kind : std::uint8_t { kMm, kPmc, kBgmLocal };

struct Instance {
  std::string spec;
  std::unique_ptr<const Topology> topology;
  Graph graph;
  unsigned delta = 0;
};

/// The batch and everything its oracles point into, built before timing.
struct Batch {
  std::vector<Instance> instances;
  std::deque<FaultSet> faults;
  std::deque<Syndrome> syndromes;
  std::deque<DirectedSyndrome> directed_syndromes;
  std::deque<TableOracle> tables;
  std::deque<DirectedTableOracle> directed;
  std::vector<EngineRequest> requests;
  std::vector<Kind> kind;
  std::vector<std::size_t> instance;
  std::vector<std::vector<Node>> truth;  // the answer's expected faults
};

void make_batch(Batch& b, std::uint64_t seed) {
  for (const char* spec : kSpecs) {
    Instance inst;
    inst.spec = spec;
    inst.topology = make_topology_from_spec(spec);
    inst.graph = inst.topology->build_graph();
    inst.delta = inst.topology->default_fault_bound();
    b.instances.push_back(std::move(inst));
  }
  // Fixed stream sizes, seeded order: the work mix — and so the split into
  // cohorts and scalar remainder — is the same for every seed, while which
  // request lands where is drawn from it.
  std::vector<std::size_t> streams;
  for (std::size_t stream = 0; stream < kStreamSizes.size(); ++stream) {
    streams.insert(streams.end(), kStreamSizes[stream], stream);
  }
  Rng rng(mix64(seed, 0x5E12EBull));
  for (std::size_t i = streams.size(); i > 1; --i) {
    std::swap(streams[i - 1], streams[rng.below(i)]);
  }
  std::array<std::size_t, kStreamSizes.size()> next{};  // per-stream counters
  for (const std::size_t stream : streams) {
    const Kind kind = stream < kSpecs.size()    ? Kind::kMm
                      : stream == kSpecs.size() ? Kind::kPmc
                                                : Kind::kBgmLocal;
    const std::size_t inst = kind == Kind::kPmc        ? kPmcInstance
                             : kind == Kind::kBgmLocal ? kBgmInstance
                                                       : stream;
    const Instance& in = b.instances[inst];
    const std::size_t k = next[stream]++;
    const std::size_t n = in.graph.num_nodes();
    const std::size_t count = k % (in.delta + 1);
    const FaultyBehavior behavior =
        kAllFaultyBehaviors[(k / (in.delta + 1)) % 4];
    const FaultSet& faults =
        b.faults.emplace_back(n, inject_uniform(n, count, rng));
    const std::uint64_t syndrome_seed = rng();

    EngineRequest rq;
    rq.spec = in.spec;
    std::vector<Node> truth = faults.nodes();
    if (kind == Kind::kMm) {
      const Syndrome& s = b.syndromes.emplace_back(
          generate_syndrome(in.graph, faults, behavior, syndrome_seed));
      rq.oracle = &b.tables.emplace_back(in.graph, s);
    } else {
      const DiagnosisModel model =
          kind == Kind::kPmc ? DiagnosisModel::kPMC : DiagnosisModel::kBGM;
      const DirectedSyndrome& s =
          b.directed_syndromes.emplace_back(generate_directed_syndrome(
              in.graph, faults, model, behavior, syndrome_seed));
      rq.directed = &b.directed.emplace_back(in.graph, s, model);
      if (kind == Kind::kBgmLocal) {
        const Node node = count > 0 && rng.below(2) == 0
                              ? faults.nodes()[rng.below(count)]
                              : static_cast<Node>(rng.below(n));
        rq.local_node = node;
        truth.clear();
        if (faults.is_faulty(node)) truth.push_back(node);
      }
    }
    b.requests.push_back(std::move(rq));
    b.kind.push_back(kind);
    b.instance.push_back(inst);
    b.truth.push_back(std::move(truth));
  }
}

void check_all(Report& report, const Batch& b,
               const std::vector<DiagnosisResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    check_answer(report, results[i], b.truth[i], i);
  }
}

double setup_once(std::unique_ptr<DiagnosisEngine>& engine, unsigned lanes) {
  engine.reset();
  const std::int64_t t0 = now_ns();
  EngineOptions options;
  options.threads = lanes;
  engine = std::make_unique<DiagnosisEngine>(options);
  for (const char* spec : kSpecs) (void)engine->calibration(spec);
  (void)engine->calibration(kSpecs[kPmcInstance], 0, ParentRule::kSpread, true,
                            DiagnosisModel::kPMC);
  (void)engine->calibration(kSpecs[kBgmInstance], 0, ParentRule::kSpread, true,
                            DiagnosisModel::kBGM);
  return seconds_between(t0, now_ns());
}

std::shared_ptr<const Calibration> calibration_of(DiagnosisEngine& engine,
                                                  const Batch& b,
                                                  std::size_t i) {
  const std::string& spec = b.requests[i].spec;
  switch (b.kind[i]) {
    case Kind::kMm:
      return engine.calibration(spec);
    case Kind::kPmc:
      return engine.calibration(spec, 0, ParentRule::kSpread, true,
                                DiagnosisModel::kPMC);
    case Kind::kBgmLocal:
      return engine.calibration(spec, 0, ParentRule::kSpread, true,
                                DiagnosisModel::kBGM);
  }
  return nullptr;
}

/// serve()'s work on one batch, done at one lane through the public calls
/// serve() makes, on `engine`'s calibrations: a warm calibration look-up per
/// request, diagnose_cohort on full 64-wide runs of same-spec table
/// requests, scalar diagnose on the rest, and bgm_local_diagnose with a
/// DirectedDiagnoser fallback for directed requests.
class LayerPath {
 public:
  LayerPath(DiagnosisEngine& engine, const Batch& b, Tracer& tracer)
      : engine_(engine),
        b_(b),
        tracer_(tracer),
        pmc_cal_(engine.calibration(kSpecs[kPmcInstance], 0,
                                    ParentRule::kSpread, true,
                                    DiagnosisModel::kPMC)),
        bgm_cal_(engine.calibration(kSpecs[kBgmInstance], 0,
                                    ParentRule::kSpread, true,
                                    DiagnosisModel::kBGM)),
        pmc_(pmc_cal_->graph, pmc_cal_->delta()),
        bgm_(bgm_cal_->graph, bgm_cal_->delta()),
        by_instance_(b.instances.size()),
        in_cohort_(b.requests.size(), 0) {
    for (const Instance& in : b.instances) {
      diagnosers_.push_back(engine.make_diagnoser(in.spec));
    }
    for (std::size_t i = 0; i < b.requests.size(); ++i) {
      if (b.kind[i] == Kind::kMm) by_instance_[b.instance[i]].push_back(i);
    }
    for (const auto& idx : by_instance_) {
      for (std::size_t k = 0; k + kCohort <= idx.size(); k += kCohort) {
        cohorts_.emplace_back(idx.begin() + k, idx.begin() + k + kCohort);
        for (const std::size_t i : cohorts_.back()) in_cohort_[i] = 1;
      }
    }
  }

  /// One pass over the batch. Returns the summed time of the layer spans
  /// (0 while the tracer is disabled).
  double solve(std::vector<DiagnosisResult>& results) {
    results.assign(b_.requests.size(), DiagnosisResult{});
    layer_us_ = 0;
    local_ = definite_ = 0;
    for (const auto& cohort : cohorts_) {
      std::vector<const TableOracle*> lanes;
      for (const std::size_t i : cohort) {
        calibration_span(i);
        lanes.push_back(table(i));
      }
      const std::uint32_t span = tracer_.open(kCohortSolve);
      std::vector<DiagnosisResult> res =
          diagnosers_[b_.instance[cohort.front()]]->diagnose_cohort(lanes);
      tracer_.close(span);
      layer_us_ += tracer_.span_us(span);
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        results[cohort[k]] = std::move(res[k]);
      }
    }
    for (std::size_t i = 0; i < b_.requests.size(); ++i) {
      if (in_cohort_[i] == 0) solve_one(i, results[i]);
    }
    return layer_us_;
  }

  [[nodiscard]] const std::vector<std::vector<std::size_t>>& cohorts() const {
    return cohorts_;
  }
  [[nodiscard]] bool in_cohort(std::size_t i) const {
    return in_cohort_[i] != 0;
  }
  [[nodiscard]] const std::vector<std::size_t>& requests_of(
      std::size_t instance) const {
    return by_instance_[instance];
  }
  [[nodiscard]] Diagnoser& diagnoser(std::size_t i) const {
    return *diagnosers_[b_.instance[i]];
  }
  [[nodiscard]] const TableOracle* table(std::size_t i) const {
    return static_cast<const TableOracle*>(b_.requests[i].oracle);
  }
  [[nodiscard]] double local_definite_ratio() const {
    return ratio(static_cast<double>(definite_), static_cast<double>(local_));
  }

 private:
  void calibration_span(std::size_t i) {
    const std::uint32_t span = tracer_.open(kCal);
    (void)calibration_of(engine_, b_, i);
    tracer_.close(span);
    layer_us_ += tracer_.span_us(span);
  }

  void solve_one(std::size_t i, DiagnosisResult& result) {
    calibration_span(i);
    const EngineRequest& rq = b_.requests[i];
    if (b_.kind[i] == Kind::kMm) {
      const std::uint32_t span = tracer_.open(kScalar);
      result = diagnoser(i).diagnose(*table(i));
      tracer_.close(span);
      layer_us_ += tracer_.span_us(span);
      return;
    }
    if (b_.kind[i] == Kind::kBgmLocal) {
      ++local_;
      const std::uint32_t span = tracer_.open(kLocal);
      const LocalDiagnosisResult answer =
          bgm_local_diagnose(bgm_cal_->graph, *rq.directed, rq.local_node);
      tracer_.close(span);
      layer_us_ += tracer_.span_us(span);
      if (answer.status != LocalDiagnosisStatus::kUnknown) {
        ++definite_;
        result.success = true;
        if (answer.status == LocalDiagnosisStatus::kFaulty) {
          result.faults.push_back(rq.local_node);
        }
        return;
      }
    }
    const std::uint32_t span = tracer_.open(kDirected);
    result = (b_.kind[i] == Kind::kPmc ? pmc_ : bgm_).diagnose(*rq.directed);
    tracer_.close(span);
    layer_us_ += tracer_.span_us(span);
    if (b_.kind[i] == Kind::kBgmLocal && result.success) {
      const bool faulty = std::binary_search(
          result.faults.begin(), result.faults.end(), rq.local_node);
      result.faults.clear();
      if (faulty) result.faults.push_back(rq.local_node);
    }
  }

  DiagnosisEngine& engine_;
  const Batch& b_;
  Tracer& tracer_;
  std::shared_ptr<const Calibration> pmc_cal_;
  std::shared_ptr<const Calibration> bgm_cal_;
  DirectedDiagnoser pmc_;
  DirectedDiagnoser bgm_;
  std::vector<std::unique_ptr<Diagnoser>> diagnosers_;
  std::vector<std::vector<std::size_t>> by_instance_;
  std::vector<std::vector<std::size_t>> cohorts_;
  std::vector<char> in_cohort_;
  double layer_us_ = 0;
  std::size_t local_ = 0;
  std::size_t definite_ = 0;

 public:
  // Span names; declared after tracer_, which they are interned in.
  const std::uint32_t kCal = tracer_.name("engine.calibration");
  const std::uint32_t kCohortSolve = tracer_.name("diagnoser.diagnose_cohort");
  const std::uint32_t kScalar = tracer_.name("diagnoser.diagnose");
  const std::uint32_t kDirected = tracer_.name("directed.diagnose");
  const std::uint32_t kLocal = tracer_.name("bgm_local_diagnose");
};

/// Every MM* request solved one by one — the cohort lanes must equal their
/// scalar solves — and then replayed as its §5 phases on per-spec builders.
void replay_requests(DiagnosisEngine& engine, const Batch& b,
                     LayerPath& path,
                     const std::vector<DiagnosisResult>& results,
                     Tracer& tracer, LayerMetrics& m, Report& report) {
  std::vector<double> diagnose_us(b.requests.size(), 0);
  double cohort_scalar_us = 0;
  for (std::size_t i = 0; i < b.requests.size(); ++i) {
    if (b.kind[i] != Kind::kMm) continue;
    const std::uint32_t span = tracer.open(path.kScalar);
    const DiagnosisResult r = path.diagnoser(i).diagnose(*path.table(i));
    tracer.close(span);
    diagnose_us[i] = tracer.span_us(span);
    if (path.in_cohort(i)) cohort_scalar_us += diagnose_us[i];
    const DiagnosisResult& lane = results[i];
    if (r.success != lane.success || r.faults != lane.faults ||
        r.lookups != lane.lookups || r.probes != lane.probes) {
      report.wrong("request " + std::to_string(i) +
                   ": layer answer differs from its scalar solve");
    }
  }
  const std::size_t cohort_syndromes = path.cohorts().size() * kCohort;
  m.cohort_vs_scalar =
      ratio(cohort_scalar_us / static_cast<double>(cohort_syndromes),
            m.cohort_us_per_syndrome);

  DriverReplay replay;
  for (std::size_t inst = 0; inst < b.instances.size(); ++inst) {
    const auto cal = engine.calibration(b.instances[inst].spec);
    SetBuilder probe(cal->graph, cal->rule());
    SetBuilder final_run(cal->graph, engine.options().diagnoser.final_rule);
    for (const std::size_t i : path.requests_of(inst)) {
      const ReplayTimes t =
          replay_phases(probe, final_run, cal->graph, cal->partition,
                        *path.table(i), results[i], tracer, i, replay, report);
      replay.add_times(diagnose_us[i], t.probe_us, t.final_us);
    }
  }
  replay.fill(m);
}

}  // namespace

Report run_serve_batch(const Options& opt) {
  Report report;
  const unsigned lanes = std::max(1u, std::thread::hardware_concurrency());
  report.lanes = lanes;
  Batch b;
  make_batch(b, opt.seed);

  std::unique_ptr<DiagnosisEngine> engine;
  (void)setup_once(engine, lanes);
  for (int warm = 0; warm < 2; ++warm) {
    check_all(report, b, engine->serve(b.requests));
  }

  if (!opt.trace) {
    Timeline timeline;
    std::unique_ptr<DiagnosisEngine> cold;  // set-ups only
    double lookups = 0;
    timeline.measure(
        opt.seconds, kSetupShare,
        [&](Timeline& t) {
          const std::int64_t t0 = now_ns();
          const std::vector<DiagnosisResult> results = engine->serve(b.requests);
          t.op(static_cast<double>(now_ns() - t0) * 1e-3);
          check_all(report, b, results);
          if (lookups == 0) {
            for (const DiagnosisResult& r : results) {
              lookups += static_cast<double>(r.lookups);
            }
          }
        },
        [&] { return setup_once(cold, lanes); });
    timeline.report(report, kBatch);
    report.metric("lookups_per_request", lookups / kBatch, "count");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("batch_requests", kBatch, "count");
    report.note("directed_requests",
                static_cast<double>(b.directed.size()), "count");
    return report;
  }

  // Traced run, part 1: the engine's own entry points, and the calibrations
  // rebuilt outside it.
  LayerMetrics m;
  measure_engine(*engine, {kSpecs.begin(), kSpecs.end()},
                 engine->options().diagnoser, m);
  for (const char* spec : kSpecs) {
    replay_calibration(spec, 0, GraphMode::kCsr, m);
  }

  // Part 2: the thread pool — the same batch at every lane and at one,
  // alternately.
  std::unique_ptr<DiagnosisEngine> single;
  (void)setup_once(single, 1);
  check_all(report, b, single->serve(b.requests));
  std::vector<double> wide_us;
  std::vector<double> one_us;
  for (int rep = 0; rep < 7; ++rep) {
    for (int pass = 0; pass < 2; ++pass) {
      DiagnosisEngine& e = (pass == rep % 2) ? *engine : *single;
      const std::int64_t t0 = now_ns();
      const auto results = e.serve(b.requests);
      (&e == engine.get() ? wide_us : one_us)
          .push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      check_all(report, b, results);
    }
  }
  m.pool_speedup = ratio(median(one_us), median(wide_us));
  m.pool_efficiency = m.pool_speedup / lanes;

  // Part 3: serve()'s work at one lane through the layers, for --seconds,
  // with span recording on and off alternately.
  Tracer tracer;
  LayerPath path(*single, b, tracer);
  std::vector<DiagnosisResult> results;
  double on_us = 0;
  double off_us = 0;
  double layer_us = 0;
  std::size_t traced_passes = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t k = 0; now_ns() < deadline; ++k) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool on = (pass == 0) == (k % 2 == 0);
      tracer.enable(on);
      const std::int64_t t0 = now_ns();
      const double spans_us = path.solve(results);
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;
      (on ? on_us : off_us) += us;
      if (on) {
        layer_us += spans_us;
        ++traced_passes;
      }
      check_all(report, b, results);
    }
  }
  tracer.enable(true);
  m.trace_overhead = ratio(off_us, on_us);
  m.trace_coverage =
      ratio(layer_us / static_cast<double>(traced_passes), median(one_us));
  m.cohort_us_per_syndrome =
      mean(tracer.durations_us(path.kCohortSolve)) / kCohort;
  m.directed_solve_us = mean(tracer.durations_us(path.kDirected));
  m.directed_local_ns = mean(tracer.durations_us(path.kLocal)) * 1e3;
  m.local_definite_ratio = path.local_definite_ratio();

  // Part 4: scalar solves and the §5 replay of every MM* request.
  replay_requests(*single, b, path, results, tracer, m, report);
  m.emit(report);
  report.note("replay_cohorts", static_cast<double>(path.cohorts().size()),
              "count");
  report.note("traced_passes", static_cast<double>(traced_passes), "count");
  return report;
}

}  // namespace perfbench
