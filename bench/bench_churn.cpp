// Churn benchmark: warm incremental recertification + solve cache against
// cold full recalibration. Two row kinds share one schema (`mode`):
//
//   harness — generated hostile churn streams (removals, repairs, expected
//       errors, component kill) replayed through run_churn_stream, which
//       diffs the warm path against diagnose_cold() after every event. A
//       row records the bit-identity verdict plus the recertification work
//       ratio: components the incremental path actually recertified vs the
//       components cold recalibration re-derives across the same stream.
//   timed   — a fixed churned topology under syndrome churn: one fault
//       toggles in and out per round, and each round times
//       diagnose_delta(changed rows) against diagnose_cold() on the same
//       oracle, asserting identical() per round before the times count.
//
// Any bit-identity divergence fails the run; the full run additionally
// requires the headline warm-over-cold ratio to reach 10x (the committed
// BENCH_churn.json is the record of that claim).
//
// Not a google-benchmark binary, like bench_scale and bench_models: CI
// asserts the identity fields on images without the benchmark library.
//
//   bench_churn [--smoke] [--out FILE]
//
// --smoke shrinks to the small families for CI (seconds); schema is
// identical.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "churn/churn_engine.hpp"
#include "churn/churn_stream.hpp"
#include "churn/harness.hpp"
#include "engine/engine.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/oracle.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace mmdiag::bench {
namespace {

struct Family {
  std::string spec;
  unsigned delta;        // certifiable fault bound (0 = topology default)
  std::size_t events;    // harness stream length
  std::size_t rounds;    // timed fault-toggle rounds
};

struct RowStats {
  bool identical = true;
  double warm_over_cold = 0;
};

Table& table() {
  static Table t({"mode", "spec", "oracle", "events", "errs", "degraded",
                  "reuse", "warm_work", "cold_work", "warm_ms", "cold_ms",
                  "warm/cold", "identical"});
  return t;
}

/// Replay a generated hostile stream; the harness itself is the
/// differential checker, so `ok()` IS the per-event bit-identity verdict.
RowStats run_harness_row(DiagnosisEngine& engine, const Family& family,
                         std::uint64_t seed, bool use_table,
                         JsonBenchReport& report) {
  ChurnStreamConfig config;
  config.spec = family.spec;
  config.delta = family.delta;
  config.seed = seed;
  config.events = family.events;
  const ChurnStream stream = generate_churn_stream(engine, config);

  ChurnHarnessOptions options;
  options.use_table_oracle = use_table;
  Timer timer;
  const ChurnHarnessReport r = run_churn_stream(engine, stream, options);
  const double seconds = timer.seconds();

  const double work_ratio =
      r.warm_recert_components
          ? static_cast<double>(r.cold_recert_components) /
                static_cast<double>(r.warm_recert_components)
          : 0;
  report.add_result({
      {"mode", JsonValue::str("harness")},
      {"spec", JsonValue::str(family.spec)},
      {"delta", JsonValue::num(std::uint64_t{family.delta})},
      {"oracle", JsonValue::str(use_table ? "table" : "lazy")},
      {"seed", JsonValue::num(seed)},
      {"events", JsonValue::num(r.events)},
      {"topology_events", JsonValue::num(r.topology_events)},
      {"diagnose_events", JsonValue::num(r.diagnose_events)},
      {"delta_events", JsonValue::num(r.delta_events)},
      {"expected_errors", JsonValue::num(r.expected_errors)},
      {"degraded_components_seen", JsonValue::num(r.degraded_components_seen)},
      {"empty_components_seen", JsonValue::num(r.empty_components_seen)},
      {"cache_reuses", JsonValue::num(r.cache_reuses)},
      {"warm_recert_components", JsonValue::num(r.warm_recert_components)},
      {"cold_recert_components", JsonValue::num(r.cold_recert_components)},
      {"recert_work_ratio", JsonValue::num(work_ratio)},
      {"seconds", JsonValue::num(seconds)},
      {"divergences", JsonValue::num(r.divergences.size())},
      {"identical_warm_cold", JsonValue::boolean(r.ok())},
  });
  table().add_row({"harness", family.spec, use_table ? "table" : "lazy",
                   Table::num(r.events), Table::num(r.expected_errors),
                   Table::num(r.degraded_components_seen),
                   Table::num(r.cache_reuses),
                   Table::num(r.warm_recert_components),
                   Table::num(r.cold_recert_components), "-", "-",
                   Table::num(work_ratio, 1), r.ok() ? "yes" : "NO"});
  for (const std::string& d : r.divergences) {
    std::cerr << "DIVERGENCE [" << family.spec << " seed " << seed
              << "]: " << d << "\n";
  }
  return {r.ok(), work_ratio};
}

/// Syndrome churn on a lightly churned topology, timed warm vs cold on the
/// very same oracle each round. Two traffic shapes:
///   flip   — a fault toggles every round, so the warm path re-probes the
///            touched components and re-runs the global phase (worst case);
///   repeat — the syndrome never changes (steady-state monitoring), so the
///            warm path serves every round from the solve cache while cold
///            recertifies and re-solves everything from scratch.
enum class TimedTraffic { kFlip, kRepeat };

RowStats run_timed_row(DiagnosisEngine& engine, const Family& family,
                       TimedTraffic traffic, JsonBenchReport& report) {
  ChurnEngineOptions options;
  options.delta = family.delta;
  ChurnEngine churn(engine, family.spec, options);
  const Calibration& cal = churn.calibration();
  const std::size_t n = churn.overlay().num_nodes();

  // Light topology churn up front so the warm path works on a genuinely
  // churned state, not the pristine base: remove two high nodes, repair one.
  churn.apply({ChurnOp::kRemoveNode, static_cast<Node>(n - 1), 0});
  churn.apply({ChurnOp::kRemoveNode, static_cast<Node>(n - 2), 0});
  churn.apply({ChurnOp::kRepairNode, static_cast<Node>(n - 2), 0});

  const std::uint64_t behavior_seed = mix64(0xC4u, family.spec.size());
  auto make_oracle = [&](const FaultSet& faults)
      -> std::unique_ptr<SyndromeOracle> {
    if (cal.is_implicit()) {
      return std::make_unique<ImplicitLazyOracle>(
          *cal.implicit_view, faults, FaultyBehavior::kRandom, behavior_seed);
    }
    return std::make_unique<LazyOracle>(cal.graph, faults,
                                        FaultyBehavior::kRandom,
                                        behavior_seed);
  };
  auto neighbors_of = [&](Node u) {
    std::vector<Node> out;
    if (cal.is_implicit()) {
      const auto nbrs = cal.implicit_view->neighbors(u);
      out.assign(nbrs.begin(), nbrs.end());
    } else {
      for (const Node w : cal.graph.neighbors(u)) out.push_back(w);
    }
    return out;
  };

  // Base faults at low (live) ids; one toggle node flips per round. The
  // changed-row set of a toggle is the node plus its base neighbourhood —
  // exactly what the harness derives from the fault-list symdiff.
  const unsigned delta = churn.delta();
  std::vector<Node> base_faults;
  for (Node u = 1; base_faults.size() + 1 < delta; u += 3) {
    base_faults.push_back(u);
  }
  const Node toggle = 0;
  std::vector<Node> changed = neighbors_of(toggle);
  changed.push_back(toggle);

  // Prime the solve cache with the base fault set.
  {
    const FaultSet faults(n, base_faults);
    const auto oracle = make_oracle(faults);
    (void)churn.diagnose(*oracle);
  }

  const bool flip = traffic == TimedTraffic::kFlip;
  const std::vector<Node> no_rows_changed;
  bool all_identical = true;
  double warm_seconds = 0, cold_seconds = 0;
  std::uint64_t warm_lookups = 0, cold_lookups = 0;
  for (std::size_t round = 0; round < family.rounds; ++round) {
    std::vector<Node> fault_list = base_faults;
    if (flip && round % 2 == 0) fault_list.push_back(toggle);
    const FaultSet faults(n, fault_list);
    const auto oracle = make_oracle(faults);

    Timer warm_timer;
    const ChurnDiagnosis warm =
        churn.diagnose_delta(*oracle, flip ? changed : no_rows_changed);
    warm_seconds += warm_timer.seconds();

    Timer cold_timer;
    const ChurnDiagnosis cold = churn.diagnose_cold(*oracle);
    cold_seconds += cold_timer.seconds();

    all_identical = all_identical && identical(warm, cold);
    warm_lookups += warm.spent_lookups;
    cold_lookups += cold.spent_lookups;
  }

  const double speedup = warm_seconds > 0 ? cold_seconds / warm_seconds : 0;
  report.add_result({
      {"mode", JsonValue::str(flip ? "timed-flip" : "timed-repeat")},
      {"spec", JsonValue::str(family.spec)},
      {"delta", JsonValue::num(std::uint64_t{delta})},
      {"oracle", JsonValue::str(cal.is_implicit() ? "implicit-lazy" : "lazy")},
      {"nodes", JsonValue::num(n)},
      {"components", JsonValue::num(std::uint64_t{churn.num_components()})},
      {"rounds", JsonValue::num(family.rounds)},
      {"warm_seconds", JsonValue::num(warm_seconds)},
      {"cold_seconds", JsonValue::num(cold_seconds)},
      {"warm_lookups", JsonValue::num(warm_lookups)},
      {"cold_lookups", JsonValue::num(cold_lookups)},
      {"warm_over_cold", JsonValue::num(speedup)},
      {"identical_warm_cold", JsonValue::boolean(all_identical)},
  });
  table().add_row(
      {flip ? "timed-flip" : "timed-repeat", family.spec,
       cal.is_implicit() ? "implicit" : "lazy",
       Table::num(family.rounds), "-", "-", "-", Table::num(warm_lookups),
       Table::num(cold_lookups), Table::num(warm_seconds * 1e3, 2),
       Table::num(cold_seconds * 1e3, 2), Table::num(speedup, 1),
       all_identical ? "yes" : "NO"});
  if (!all_identical) {
    std::cerr << "DIVERGENCE [" << family.spec
              << " timed]: warm diagnose_delta != diagnose_cold\n";
  }
  return {all_identical, speedup};
}

int run(bool smoke, const std::string& out_path) {
  const std::vector<Family> families =
      smoke ? std::vector<Family>{{"hypercube 5", 3, 24, 8},
                                  {"star 4", 3, 24, 8},
                                  {"kary_ncube 2 6", 3, 24, 8}}
            : std::vector<Family>{{"hypercube 5", 3, 96, 16},
                                  {"star 4", 3, 96, 16},
                                  {"kary_ncube 2 6", 3, 96, 16},
                                  {"hypercube 8", 4, 64, 24},
                                  {"hypercube 10", 4, 48, 24}};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};

  EngineOptions engine_options;
  engine_options.cache_capacity = 32;
  engine_options.threads = 1;
  DiagnosisEngine engine(engine_options);

  JsonBenchReport report("bench_churn");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));

  bool all_identical = true;
  double best_speedup = 0, best_work_ratio = 0;
  for (const Family& family : families) {
    for (const std::uint64_t seed : seeds) {
      const RowStats row = run_harness_row(engine, family, seed,
                                           /*use_table=*/false, report);
      all_identical = all_identical && row.identical;
      best_work_ratio = std::max(best_work_ratio, row.warm_over_cold);
    }
  }
  // One table-oracle harness row per run: same stream distribution, rows
  // materialised per diagnose event (CSR calibrations only).
  {
    const RowStats row = run_harness_row(engine, families.front(),
                                         seeds.front(),
                                         /*use_table=*/true, report);
    all_identical = all_identical && row.identical;
  }
  for (const Family& family : families) {
    const RowStats flip = run_timed_row(engine, family, TimedTraffic::kFlip,
                                        report);
    const RowStats repeat = run_timed_row(engine, family,
                                          TimedTraffic::kRepeat, report);
    all_identical = all_identical && flip.identical && repeat.identical;
    best_speedup = std::max(best_speedup, repeat.warm_over_cold);
  }

  report.set_meta("warm_over_cold_headline", JsonValue::num(best_speedup));
  report.set_meta("recert_work_ratio_headline",
                  JsonValue::num(best_work_ratio));
  report.set_meta("all_identical", JsonValue::boolean(all_identical));

  std::cout << "\n=== Churn: warm incremental vs cold recalibration ===\n";
  table().print(std::cout);
  std::cout << "\nCSV:\n";
  table().print_csv(std::cout);
  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  std::cout << "headline: warm " << best_speedup
            << "x over cold (timed), recert work ratio " << best_work_ratio
            << "x\n";

  if (!all_identical) {
    std::cerr << "FAIL: a warm churn answer diverged from cold "
                 "recalibration\n";
    return 1;
  }
  if (!smoke && best_speedup < 10.0) {
    std::cerr << "FAIL: warm-over-cold headline " << best_speedup
              << "x is below the 10x bar\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_churn.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_churn [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return mmdiag::bench::run(smoke, out_path);
}
