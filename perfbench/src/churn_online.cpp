// churn-online: ChurnEngine on hypercube 10 with δ = 4 and lazy oracles.
//
// A script built from the seed interleaves topology writes (node remove and
// repair through apply) with reads: full diagnose calls, and diagnose_delta
// calls that flip one fault or repeat the previous syndrome. Each epoch
// removes one node, reads, repairs it and reads again, so the script ends
// on the base topology and loops. The script is validated while it is
// built: every read's cold answer is exact, so no operation fails.
#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "churn/churn_engine.hpp"
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

constexpr const char* kSpec = "hypercube 10";
constexpr unsigned kDelta = 4;
constexpr std::size_t kEpochs = 24;
// Cold set-ups run between passes while they have taken less than this
// share of the pass time.
constexpr double kSetupShare = 0.2;

enum class OpKind : std::uint8_t { kRemove, kRepair, kFull, kFlip, kRepeat };

struct Op {
  OpKind kind = OpKind::kFull;
  Node node = 0;            // kRemove / kRepair
  std::size_t oracle = 0;   // reads: index into Script::oracles
  std::vector<Node> changed;  // kFlip: rows that differ from the last read
};

struct Script {
  Graph graph;
  std::deque<FaultSet> faults;
  std::deque<LazyOracle> oracles;
  std::vector<Op> ops;
};

ChurnEngineOptions churn_options() {
  ChurnEngineOptions options;
  options.delta = kDelta;
  return options;
}

/// A fault flip changes the flipped node's own row and its neighbours'.
std::vector<Node> changed_rows(const Graph& g, const std::vector<Node>& before,
                               const std::vector<Node>& after) {
  std::vector<Node> flipped;
  std::set_symmetric_difference(before.begin(), before.end(), after.begin(),
                                after.end(), std::back_inserter(flipped));
  std::vector<Node> changed = flipped;
  for (const Node u : flipped) {
    for (const Node w : g.neighbors(u)) changed.push_back(w);
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

void make_script(Script& s, std::uint64_t seed) {
  s.graph = make_topology_from_spec(kSpec)->build_graph();
  const std::size_t n = s.graph.num_nodes();
  DiagnosisEngine engine;
  ChurnEngine sim(engine, kSpec, churn_options());
  Rng rng(mix64(seed, 0xC4011ull));
  const std::uint64_t behavior_seed = rng();
  std::vector<Node> faults = inject_uniform(n, rng.below(kDelta + 1), rng);
  std::sort(faults.begin(), faults.end());
  FaultyBehavior behavior = kAllFaultyBehaviors[0];

  auto exact = [&](const std::vector<Node>& f) {
    const FaultSet fs(n, f);
    const LazyOracle oracle(s.graph, fs, behavior, behavior_seed);
    const ChurnDiagnosis d = sim.diagnose_cold(oracle);
    return d.success && d.faults == fs.nodes();
  };
  auto read = [&](OpKind kind, const std::vector<Node>& before) {
    Op op;
    op.kind = kind;
    if (kind == OpKind::kRepeat) {
      op.oracle = s.oracles.size() - 1;
    } else {
      const FaultSet& fs = s.faults.emplace_back(n, faults);
      s.oracles.emplace_back(s.graph, fs, behavior, behavior_seed);
      op.oracle = s.oracles.size() - 1;
    }
    if (kind == OpKind::kFlip) op.changed = changed_rows(s.graph, before, faults);
    s.ops.push_back(std::move(op));
  };
  auto flip = [&](Node removed) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::vector<Node> next = faults;
      if (next.size() == kDelta || (!next.empty() && rng.below(2) == 0)) {
        next.erase(next.begin() + static_cast<std::ptrdiff_t>(rng.below(next.size())));
      } else {
        const auto x = static_cast<Node>(rng.below(n));
        if (x == removed || std::binary_search(next.begin(), next.end(), x)) {
          continue;
        }
        next.insert(std::upper_bound(next.begin(), next.end(), x), x);
      }
      if (exact(next)) {
        const std::vector<Node> before = faults;
        faults = std::move(next);
        read(OpKind::kFlip, before);
        return;
      }
    }
    throw std::runtime_error("churn script: no exact fault flip found");
  };
  auto reads = [&](std::initializer_list<OpKind> kinds, Node removed) {
    for (const OpKind kind : kinds) {
      if (kind == OpKind::kFlip) {
        flip(removed);
      } else {
        read(kind, faults);
      }
    }
  };

  for (std::size_t e = 0; e < kEpochs; ++e) {
    behavior = kAllFaultyBehaviors[e % 4];
    Node removed = kNoNode;
    for (int attempt = 0; attempt < 200 && removed == kNoNode; ++attempt) {
      const auto u = static_cast<Node>(rng.below(n));
      if (std::binary_search(faults.begin(), faults.end(), u)) continue;
      sim.apply(ChurnDelta{ChurnOp::kRemoveNode, u, 0});
      if (exact(faults)) {
        removed = u;
      } else {
        sim.apply(ChurnDelta{ChurnOp::kRepairNode, u, 0});
      }
    }
    if (removed == kNoNode) {
      throw std::runtime_error("churn script: no removable node found");
    }
    s.ops.push_back(Op{OpKind::kRemove, removed, 0, {}});
    reads({OpKind::kFull, OpKind::kFlip, OpKind::kRepeat, OpKind::kFlip,
           OpKind::kFlip, OpKind::kRepeat},
          removed);
    sim.apply(ChurnDelta{ChurnOp::kRepairNode, removed, 0});
    s.ops.push_back(Op{OpKind::kRepair, removed, 0, {}});
    if (!exact(faults)) throw std::runtime_error("churn script: repair inexact");
    reads({OpKind::kFull, OpKind::kFlip, OpKind::kRepeat, OpKind::kFlip},
          kNoNode);
  }
}

struct Live {
  std::unique_ptr<DiagnosisEngine> engine;
  std::unique_ptr<ChurnEngine> churn;  // holds a pointer into *engine
};

double setup_once(Live& live) {
  live.churn.reset();
  live.engine.reset();
  const std::int64_t t0 = now_ns();
  live.engine = std::make_unique<DiagnosisEngine>();
  live.churn = std::make_unique<ChurnEngine>(*live.engine, kSpec,
                                             churn_options());
  return seconds_between(t0, now_ns());
}

/// Totals over the passes a run makes.
struct PassStats {
  std::size_t ops = 0;
  std::size_t reads = 0;
  double busy_us = 0;        // time in the timed calls, spans included
  std::vector<double> write_us;
  std::uint64_t lookups = 0;
  std::size_t reused = 0;    // delta reads: components served from cache
  std::size_t reprobed = 0;  // delta reads: components probed again
};

/// One pass over the script: each op's ChurnEngine call is timed, with a
/// span around it (recorded only while `tracer` is enabled), and added to
/// `timeline` when there is one. Reads are checked against diagnose_cold
/// outside the timed call.
void run_pass(ChurnEngine& churn, const Script& s, Tracer& tracer,
              PassStats& stats, Report& report, Timeline* timeline) {
  const std::uint32_t kApply = tracer.name("churn.apply");
  const std::uint32_t kDiagnose = tracer.name("churn.diagnose");
  const std::uint32_t kDeltaRead = tracer.name("churn.diagnose_delta");
  auto timed = [&](double us, bool read) {
    ++stats.ops;
    stats.busy_us += us;
    if (read) {
      ++stats.reads;
    } else {
      stats.write_us.push_back(us);
    }
    if (timeline != nullptr) timeline->op(us, read);
  };
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    const Op& op = s.ops[k];
    if (op.kind == OpKind::kRemove || op.kind == OpKind::kRepair) {
      const ChurnDelta delta{op.kind == OpKind::kRemove ? ChurnOp::kRemoveNode
                                                        : ChurnOp::kRepairNode,
                             op.node, 0};
      const std::int64_t t0 = now_ns();
      const std::uint32_t span = tracer.open(kApply);
      churn.apply(delta);
      tracer.close(span);
      timed(static_cast<double>(now_ns() - t0) * 1e-3, false);
      (void)report.answer(true, true);
      continue;
    }
    const LazyOracle& oracle = s.oracles[op.oracle];
    const bool full = op.kind == OpKind::kFull;
    const std::int64_t t0 = now_ns();
    const std::uint32_t span = tracer.open(full ? kDiagnose : kDeltaRead);
    const ChurnDiagnosis d =
        full ? churn.diagnose(oracle) : churn.diagnose_delta(oracle, op.changed);
    tracer.close(span);
    timed(static_cast<double>(now_ns() - t0) * 1e-3, true);
    stats.lookups += d.spent_lookups;
    if (!full) {
      stats.reused += d.components_reused;
      stats.reprobed += d.components_reprobed;
    }
    const ChurnDiagnosis cold = churn.diagnose_cold(oracle);
    if (!report.answer(d.success, identical(d, cold) &&
                                      d.faults == s.faults[op.oracle].nodes())) {
      report.wrong("op " + std::to_string(k) +
                   ": warm read differs from diagnose_cold or the injected "
                   "faults");
    }
  }
}

}  // namespace

Report run_churn_online(const Options& opt) {
  Report report;
  report.lanes = 1;
  Script s;
  make_script(s, opt.seed);

  Live live;
  (void)setup_once(live);
  Tracer tracer;
  tracer.enable(false);
  {
    PassStats warm;
    run_pass(*live.churn, s, tracer, warm, report, nullptr);
  }

  if (!opt.trace) {
    Timeline timeline;
    Live cold;  // set-ups only
    PassStats stats;
    double first_pass_lookups = 0;
    std::size_t first_pass_reads = 0;
    timeline.measure(
        opt.seconds, kSetupShare,
        [&](Timeline& t) {
          run_pass(*live.churn, s, tracer, stats, report, &t);
          if (first_pass_reads == 0) {
            first_pass_lookups = static_cast<double>(stats.lookups);
            first_pass_reads = stats.reads;
          }
        },
        [&] { return setup_once(cold); });
    timeline.report(report, 1);
    report.metric("lookups_per_request",
                  first_pass_lookups / static_cast<double>(first_pass_reads),
                  "count");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("write_p50_us", median(stats.write_us), "us");
    report.note("write_p99_us", percentile(stats.write_us, 0.99), "us");
    report.note("write_samples", static_cast<double>(stats.write_us.size()),
                "count");
    return report;
  }

  // Traced run, part 1: passes with span recording on and off alternate.
  PassStats on;
  PassStats off;
  const std::uint64_t recertified_before = live.churn->components_recertified();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t pass = 0; now_ns() < deadline; ++pass) {
    const bool trace_this = pass % 2 == 1;
    tracer.enable(trace_this);
    run_pass(*live.churn, s, tracer, trace_this ? on : off, report, nullptr);
  }
  tracer.enable(true);
  const std::uint64_t recertified =
      live.churn->components_recertified() - recertified_before;
  const std::uint32_t kApply = tracer.name("churn.apply");
  const std::uint32_t kDiagnose = tracer.name("churn.diagnose");
  const std::uint32_t kDeltaRead = tracer.name("churn.diagnose_delta");

  LayerMetrics m;
  const double call_us = tracer.total_us(kApply) + tracer.total_us(kDiagnose) +
                         tracer.total_us(kDeltaRead);
  m.trace_coverage = ratio(call_us, on.busy_us);
  m.trace_overhead =
      ratio(off.busy_us / static_cast<double>(off.ops),
            on.busy_us / static_cast<double>(on.ops));
  const std::vector<double> applies = tracer.durations_us(kApply);
  m.churn_apply_us = median(applies);
  m.churn_apply_p99_us = percentile(applies, 0.99);
  const std::size_t writes = on.write_us.size() + off.write_us.size();
  m.recertified_per_apply =
      ratio(static_cast<double>(recertified), static_cast<double>(writes));
  m.delta_reuse_ratio =
      ratio(static_cast<double>(on.reused + off.reused),
            static_cast<double>(on.reused + off.reused + on.reprobed +
                                off.reprobed));
  m.churn_lookups_per_read =
      ratio(static_cast<double>(on.lookups + off.lookups),
            static_cast<double>(on.reads + off.reads));

  // Part 2: the engine under the churn engine, and its calibration rebuilt.
  DiagnoserOptions options;
  options.delta = kDelta;
  measure_engine(*live.engine, {kSpec}, options, m);
  replay_calibration(kSpec, kDelta, GraphMode::kCsr, m);

  m.emit(report);
  return report;
}

}  // namespace perfbench
