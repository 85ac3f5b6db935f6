// bench_paper — the paper-reproduction record. One table of (experiment,
// spec, algorithm) rows covers every experiment EXPERIMENTS.md lists:
// Theorem 1's O(Δ·N) driver (E1), Theorems 2–7 family by family (E2–E7),
// the §6 look-up economy (E8), the distributed Set_Builder (E9), the
// ablations (E12) and the exact solver (E13). The rows go to one JSON file:
//
//   bench_paper [--out FILE]          (default: BENCH_paper.json)
//
// Every row makes one exact claim: the solve recovers the injected faults,
// the topology raises DiagnosisUnsupportedError, the replayed final run
// stays within the §6 bound, or an implicit-view solve peaks under the RSS
// budget. The exit status is 1 when any claim fails. Timings (the best of
// kReps warm repetitions) and ratios are recorded, never gated.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "baselines/chiang_tan.hpp"
#include "baselines/exact_solver.hpp"
#include "baselines/yang_cycle.hpp"
#include "bench_json.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "core/distributed.hpp"
#include "core/set_builder.hpp"
#include "distributed/protocol.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "topology/hypercube.hpp"
#include "topology/registry.hpp"
#include "topology/star_graph.hpp"
#include "util/enum_names.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mmdiag::bench {
namespace {

/// Timed repetitions of every timed solve, after one untimed warm-up.
constexpr int kReps = 5;
/// Peak-RSS budget of the implicit-view E1 rows.
constexpr std::uint64_t kRssBudgetKb = 256 * 1024;
/// Seed of the faulty testers' random answers.
constexpr std::uint64_t kOracleSeed = 37;

constexpr const char* kRecovers = "recovers the injected faults";
constexpr const char* kUnsupported = "raises DiagnosisUnsupportedError";
constexpr const char* kWithinBound =
    "recovers the injected faults; final run within the §6 bound";
constexpr const char* kUnderBudget =
    "recovers the injected faults under the 256 MB peak-RSS budget";

using Fields = std::vector<JsonField>;

JsonValue num(std::uint64_t v) { return JsonValue::num(v); }
JsonValue real(double v) { return JsonValue::num(v); }
JsonValue flag(bool v) { return JsonValue::boolean(v); }

/// What a row measured, and whether its claim held.
struct Outcome {
  const char* claim = kRecovers;
  bool holds = false;
  Fields fields;
};

struct Row {
  const char* experiment;
  const char* spec;
  std::string algorithm;
  Outcome (*run)(const Row&);
  unsigned param = 0;  // E12: the parent rule, or the granularity's m
};

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // kilobytes
#endif
#else
  return 0;
#endif
}

/// Best wall time of kReps runs of `solve`, after one warm-up run.
template <class F>
double best_seconds(F&& solve) {
  solve();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kReps; ++i) {
    const Timer timer;
    solve();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// A topology with its CSR graph, built once per spec.
struct Instance {
  std::unique_ptr<Topology> topo;
  Graph graph;
};

const Instance& instance(const std::string& spec) {
  static std::map<std::string, std::unique_ptr<Instance>> cache;
  auto& slot = cache[spec];
  if (!slot) {
    slot = std::make_unique<Instance>();
    slot->topo = make_topology_from_spec(spec);
    slot->graph = slot->topo->build_graph();
  }
  return *slot;
}

/// The default driver (spread probes, least-first final run, every
/// component calibrated) over a spec's CSR graph, calibrated once.
Diagnoser& diagnoser(const std::string& spec) {
  static std::map<std::string, std::unique_ptr<Diagnoser>> cache;
  auto& slot = cache[spec];
  if (!slot) {
    const Instance& inst = instance(spec);
    slot = std::make_unique<Diagnoser>(*inst.topo, inst.graph);
  }
  return *slot;
}

/// `count` faults drawn uniformly, the same for every row of one spec.
FaultSet faults_for(const std::string& spec, std::uint64_t nodes,
                    std::size_t count, std::uint64_t salt = 0) {
  std::uint64_t seed = 0x5EED ^ salt;
  for (const char c : spec) seed = mix64(seed, static_cast<unsigned char>(c));
  Rng rng(seed);
  return FaultSet(nodes, inject_uniform(nodes, count, rng));
}

/// The fields of one timed solve; the claim holds when it recovered F.
Outcome solved(std::uint64_t nodes, unsigned max_degree, unsigned delta,
               const FaultSet& faults, const DiagnosisResult& r,
               double seconds) {
  const double work = static_cast<double>(nodes) * max_degree;
  return {kRecovers,
          r.success && r.faults == faults.nodes(),
          {{"nodes", num(nodes)},
           {"max_degree", num(max_degree)},
           {"delta", num(delta)},
           {"faults", num(faults.size())},
           {"time_ms", real(seconds * 1e3)},
           {"ns_per_DN", real(seconds * 1e9 / work)},
           {"lookups", num(r.lookups)},
           {"probes", num(r.probes)},
           {"success", flag(r.success)}}};
}

/// Times `solve` on a spec's standard input: a lazy oracle on the CSR
/// graph, |F| = delta, random faulty testers.
template <class Solve>
Outcome timed_solve(const Row& row, unsigned delta, Solve&& solve) {
  const Instance& inst = instance(row.spec);
  const FaultSet faults = faults_for(row.spec, inst.graph.num_nodes(), delta);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom,
                          kOracleSeed);
  DiagnosisResult r;
  const double s = best_seconds([&] { r = solve(oracle); });
  return solved(inst.graph.num_nodes(), inst.graph.max_degree(), delta, faults,
                r, s);
}

/// E1 and the "set_builder" rows of E2–E7 and E13: the default driver.
Outcome driver_solve(const Row& row) {
  Diagnoser& diag = diagnoser(row.spec);
  return timed_solve(row, diag.delta(), [&](const SyndromeOracle& oracle) {
    return diag.diagnose(oracle);
  });
}

/// E1 beyond the CSR: hypercube 16–20 on the implicit view, calibration
/// included, with the process's peak RSS after the row.
Outcome implicit_solve(const Row& row) {
  const auto topo = make_topology_from_spec(row.spec);
  const ImplicitGraph view(*topo);
  const Timer calibration;
  Diagnoser diag(*topo, view);
  const double calibration_seconds = calibration.seconds();
  const FaultSet faults = faults_for(row.spec, view.num_nodes(), diag.delta());
  const ImplicitLazyOracle oracle(view, faults, FaultyBehavior::kRandom,
                                  kOracleSeed);
  DiagnosisResult r;
  const double s = best_seconds([&] { r = diag.diagnose(oracle); });
  Outcome out =
      solved(view.num_nodes(), view.max_degree(), diag.delta(), faults, r, s);
  const std::uint64_t rss_kb = peak_rss_kb();
  out.claim = kUnderBudget;
  out.holds = out.holds && rss_kb < kRssBudgetKb;
  out.fields.insert(out.fields.end(),
                    {{"calibration_s", real(calibration_seconds)},
                     {"view_bytes", num(view.memory_bytes())},
                     {"csr_bytes_estimate", num(view.csr_bytes_estimate())},
                     {"peak_rss_kb", num(rss_kb)}});
  return out;
}

bool certifies(const Instance& inst, unsigned bound, ParentRule rule) {
  try {
    (void)find_certified_partition(*inst.topo, inst.graph, bound, rule, true);
    return true;
  } catch (const DiagnosisUnsupportedError&) {
    return false;
  }
}

/// The published δ (Chang–Chang–Chen's bound for regular networks), the
/// bound the family's theorem supports, and whether calibration certifies
/// that bound under the paper's least-first rule and under kSpread.
Fields theorem_fields(const Instance& inst) {
  const unsigned bound = inst.topo->default_fault_bound();
  return {{"published_delta", num(inst.topo->info().diagnosability)},
          {"default_fault_bound", num(bound)},
          {"certifies_least_first",
           flag(certifies(inst, bound, ParentRule::kLeastFirst))},
          {"certifies_spread",
           flag(certifies(inst, bound, ParentRule::kSpread))}};
}

/// E2–E7: the driver's row for an instance, with the theorem's bounds.
Outcome theorem_solve(const Row& row) {
  Fields facts = theorem_fields(instance(row.spec));
  Outcome out = driver_solve(row);
  out.fields.insert(out.fields.end(), facts.begin(), facts.end());
  return out;
}

/// E5, E7: S_{n,2} and A_{n,2}, whose clique components never certify.
Outcome unsupported(const Row& row) {
  const Instance& inst = instance(row.spec);
  Outcome out{kUnsupported, false, theorem_fields(inst)};
  try {
    (void)Diagnoser(*inst.topo, inst.graph);
  } catch (const DiagnosisUnsupportedError& e) {
    out.holds = true;
    out.fields.push_back({"error", JsonValue::str(e.what())});
  }
  return out;
}

ChiangTanDiagnoser chiang_tan_for(const Instance& inst) {
  if (const auto* q = dynamic_cast<const Hypercube*>(inst.topo.get())) {
    return ChiangTanDiagnoser::for_hypercube(*q, inst.graph);
  }
  return ChiangTanDiagnoser::for_star_graph(
      dynamic_cast<const StarGraph&>(*inst.topo), inst.graph);
}

/// E2, E5: Chiang–Tan's extended-star diagnosis on the driver's syndrome.
Outcome chiang_tan_solve(const Row& row) {
  const Instance& inst = instance(row.spec);
  const ChiangTanDiagnoser ct = chiang_tan_for(inst);
  return timed_solve(row, inst.topo->default_fault_bound(),
                     [&](const SyndromeOracle& oracle) {
                       return ct.diagnose(oracle);
                     });
}

/// E2: Yang's cycle-decomposition diagnosis on the driver's syndrome.
Outcome yang_solve(const Row& row) {
  const Instance& inst = instance(row.spec);
  YangCycleDiagnoser yang(dynamic_cast<const Hypercube&>(*inst.topo),
                          inst.graph);
  return timed_solve(row, inst.topo->default_fault_bound(),
                     [&](const SyndromeOracle& oracle) {
                       return yang.diagnose(oracle);
                     });
}

/// E8: look-ups of the whole solve and of its final run, the final run
/// replayed from the certified seed; the §6 bound on the final run is
/// (Δ-1)(Δ/2 + |U_r| - 1); the full table holds Σ_u d(u)(d(u)-1)/2 tests.
Outcome lookup_economy(const Row& row) {
  const Instance& inst = instance(row.spec);
  Diagnoser& diag = diagnoser(row.spec);
  const FaultSet faults =
      faults_for(row.spec, inst.graph.num_nodes(), diag.delta());
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom,
                          kOracleSeed);
  const DiagnosisResult r = diag.diagnose(oracle);

  SetBuilder final_run(inst.graph, diag.options().final_rule);
  oracle.reset_lookups();
  const SetBuilderResult replay = final_run.run(
      oracle, diag.partition().plan->seed_of(r.certified_component),
      diag.delta());
  const std::uint64_t final_lookups = oracle.lookups();
  const std::uint64_t d = inst.graph.max_degree();
  const std::uint64_t bound =
      d * (d - 1) / 2 + (replay.members.size() - 1) * (d - 1);
  std::uint64_t table = 0;
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    const std::uint64_t du = inst.graph.degree(u);
    table += du * (du - 1) / 2;
  }

  Outcome out{kWithinBound,
              r.success && r.faults == faults.nodes() &&
                  replay.members.size() == r.final_members &&
                  final_lookups <= bound,
              {{"nodes", num(inst.graph.num_nodes())},
               {"max_degree", num(d)},
               {"delta", num(diag.delta())},
               {"lookups", num(r.lookups)},
               {"final_members", num(r.final_members)},
               {"final_lookups", num(final_lookups)},
               {"final_bound", num(bound)},
               {"full_table", num(table)},
               {"touched", real(static_cast<double>(r.lookups) /
                                static_cast<double>(table))}}};
  const std::string& family = inst.topo->info().family;
  if (family == "hypercube" || family == "star") {
    const DiagnosisResult ct = chiang_tan_for(inst).diagnose(oracle);
    out.fields.push_back({"chiang_tan_lookups", num(ct.lookups)});
  }
  return out;
}

Fields distributed_fields(std::uint64_t rounds, std::uint64_t messages,
                          std::uint64_t local_work) {
  return {{"rounds", num(rounds)},
          {"messages", num(messages)},
          {"local_work", num(local_work)}};
}

/// E9 inputs: hypercube n with |F| = n, random faulty testers.
struct DistributedCase {
  const Instance& inst;
  FaultSet faults;
  LazyOracle oracle;

  explicit DistributedCase(const std::string& spec)
      : inst(instance(spec)),
        faults(faults_for(spec, inst.graph.num_nodes(),
                          inst.topo->default_fault_bound())),
        oracle(inst.graph, faults, FaultyBehavior::kRandom, kOracleSeed) {}
};

/// E9: the analytic synchronous cost model of a distributed Set_Builder.
Outcome distributed_model(const Row& row) {
  const DistributedCase c(row.spec);
  const DistributedCost cost =
      distributed_set_builder_cost(*c.inst.topo, c.inst.graph, c.oracle);
  return {kRecovers, cost.success,
          distributed_fields(cost.rounds, cost.messages, cost.local_work)};
}

/// E9: the five-stage protocol executed on the message-passing simulator.
Outcome distributed_protocol(const Row& row) {
  const DistributedCase c(row.spec);
  const DistributedRunStats stats =
      run_distributed_diagnosis(*c.inst.topo, c.inst.graph, c.oracle);
  return {kRecovers, stats.success && stats.faults == c.faults.nodes(),
          distributed_fields(stats.rounds, stats.messages, stats.lookups)};
}

/// E9: Chiang–Tan with every node gathering its extended star by relay.
Outcome distributed_chiang_tan(const Row& row) {
  const DistributedCase c(row.spec);
  const DistributedCost cost = distributed_chiang_tan_cost(
      dynamic_cast<const Hypercube&>(*c.inst.topo), c.inst.graph, c.oracle);
  return {kRecovers, cost.success,
          distributed_fields(cost.rounds, cost.messages, cost.local_work)};
}

/// E12 (a): one parent rule for both the probes and the final run.
Outcome parent_rule(const Row& row) {
  const Instance& inst = instance(row.spec);
  DiagnoserOptions options;
  options.rule = static_cast<ParentRule>(row.param);
  options.final_rule = options.rule;
  Diagnoser diag(*inst.topo, inst.graph, options);
  Outcome out = timed_solve(row, diag.delta(), [&](const SyndromeOracle& o) {
    return diag.diagnose(o);
  });
  out.fields.push_back(
      {"component_size", num(diag.partition().plan->component_size())});
  return out;
}

/// E12 (c): Q_n split into components of 2^m nodes, whatever calibration
/// would pick; the default driver adopts the plan.
Outcome granularity(const Row& row) {
  const Instance& inst = instance(row.spec);
  const unsigned n = static_cast<unsigned>(inst.topo->params().front());
  const unsigned delta = inst.topo->default_fault_bound();
  CertifiedPartition partition;
  partition.plan = std::make_shared<PrefixBitsPlan>(n, row.param);
  partition.delta = delta;
  Diagnoser diag(inst.graph, partition);
  Outcome out = timed_solve(row, delta, [&](const SyndromeOracle& oracle) {
    return diag.diagnose(oracle);
  });
  const std::uint64_t size = partition.plan->component_size();
  out.fields.insert(out.fields.end(), {{"suffix_bits", num(row.param)},
                                       {"component_size", num(size)}});
  return out;
}

/// Look-ups of `fixpoint` (probes built to their fixpoint, as the paper
/// does) and of the same driver stopping each probe on certification, over
/// the same oracles; the claim holds when both recover every fault set.
struct ProbeExit {
  std::size_t solves = 0;
  std::uint64_t fixpoint_lookups = 0;
  std::uint64_t stop_lookups = 0;
  bool recovered = true;

  void add(Diagnoser& fixpoint, Diagnoser& stop, const FaultSet& faults,
           const SyndromeOracle& oracle) {
    const DiagnosisResult a = fixpoint.diagnose(oracle);
    const DiagnosisResult b = stop.diagnose(oracle);
    ++solves;
    fixpoint_lookups += a.lookups;
    stop_lookups += b.lookups;
    recovered = recovered && a.success && b.success &&
                a.faults == faults.nodes() && b.faults == faults.nodes();
  }

  Outcome outcome() const {
    return {kRecovers, recovered,
            {{"solves", num(solves)},
             {"fixpoint_lookups", num(fixpoint_lookups)},
             {"stop_on_certify_lookups", num(stop_lookups)},
             {"lookup_saving",
              real(1.0 - static_cast<double>(stop_lookups) /
                             static_cast<double>(fixpoint_lookups))}}};
  }
};

Diagnoser stop_on_certify(const Instance& inst, const Diagnoser& fixpoint) {
  DiagnoserOptions options;
  options.stop_probe_on_certify = true;
  return Diagnoser(inst.graph, fixpoint.partition(), options);
}

/// E12 (b) on one E1 family: |F| = 0..δ under every faulty behaviour.
Outcome probe_exit(const Row& row) {
  const Instance& inst = instance(row.spec);
  Diagnoser& fixpoint = diagnoser(row.spec);
  Diagnoser stop = stop_on_certify(inst, fixpoint);
  ProbeExit tally;
  for (unsigned count = 0; count <= fixpoint.delta(); ++count) {
    const FaultSet faults =
        faults_for(row.spec, inst.graph.num_nodes(), count, count);
    for (const FaultyBehavior behavior : kAllFaultyBehaviors) {
      const LazyOracle oracle(inst.graph, faults, behavior, kOracleSeed);
      tally.add(fixpoint, stop, faults, oracle);
    }
  }
  return tally.outcome();
}

/// E12 (b), worst case for the probes: a fault on each of the first δ
/// seeds, so δ probes fail before probe δ+1 certifies.
Outcome probe_exit_worst_case(const Row& row) {
  const Instance& inst = instance(row.spec);
  Diagnoser& fixpoint = diagnoser(row.spec);
  Diagnoser stop = stop_on_certify(inst, fixpoint);
  std::vector<Node> seeds;
  for (std::uint32_t c = 0; c < fixpoint.delta(); ++c) {
    seeds.push_back(fixpoint.partition().plan->seed_of(c));
  }
  const FaultSet faults(inst.graph.num_nodes(), seeds);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom,
                          kOracleSeed);
  ProbeExit tally;
  tally.add(fixpoint, stop, faults, oracle);
  return tally.outcome();
}

/// E13: the exact DPLL solver, which needs no partition, at the published δ.
Outcome exact_solve(const Row& row) {
  const Instance& inst = instance(row.spec);
  const unsigned delta = inst.topo->info().diagnosability;
  return timed_solve(row, delta, [&](const SyndromeOracle& oracle) {
    ExactSolver solver(inst.graph, oracle, delta);
    return solver.diagnose();
  });
}

using Specs = std::span<const char* const>;

constexpr const char* kImplicitSpecs[] = {"hypercube 16", "hypercube 17",
                                          "hypercube 18", "hypercube 19",
                                          "hypercube 20"};
constexpr const char* kE1Specs[] = {
    "hypercube 10",       "hypercube 14",        "crossed_cube 9",
    "crossed_cube 12",    "twisted_cube 9",      "twisted_cube 13",
    "folded_hypercube 8", "folded_hypercube 12", "enhanced_hypercube 9 3",
    "augmented_cube 11",  "shuffle_cube 10",     "shuffle_cube 14",
    "twisted_n_cube 9",   "twisted_n_cube 12",   "kary_ncube 2 15",
    "kary_ncube 3 13",    "augmented_kary_ncube 2 15",
    "star 7",             "star 8",              "nk_star 8 5",
    "pancake 7",          "pancake 8",           "arrangement 8 3",
    "arrangement 10 4",
};
constexpr const char* kE2Specs[] = {"hypercube 7",  "hypercube 8",
                                    "hypercube 10", "hypercube 12",
                                    "hypercube 14", "hypercube 16"};
constexpr const char* kE3Specs[] = {
    "crossed_cube 9",         "crossed_cube 12",
    "twisted_cube 9",         "twisted_cube 13",
    "folded_hypercube 8",     "folded_hypercube 12",
    "enhanced_hypercube 9 3", "enhanced_hypercube 12 6",
    "augmented_cube 11",      "augmented_cube 13",
    "shuffle_cube 10",        "shuffle_cube 14",
    "twisted_n_cube 9",       "twisted_n_cube 12",
};
constexpr const char* kE4Specs[] = {
    "kary_ncube 2 7",           "kary_ncube 2 15",
    "kary_ncube 3 9",           "kary_ncube 3 13",
    "kary_ncube 4 7",           "augmented_kary_ncube 2 9",
    "augmented_kary_ncube 2 15", "augmented_kary_ncube 3 11",
};
constexpr const char* kE5Specs[] = {"nk_star 6 3", "nk_star 7 4",
                                    "nk_star 8 5", "nk_star 9 4",
                                    "star 6",      "star 7",
                                    "star 8"};
constexpr const char* kStarSpecs[] = {"star 6", "star 7", "star 8"};
constexpr const char* kE6Specs[] = {"pancake 6", "pancake 7", "pancake 8"};
constexpr const char* kE7Specs[] = {"arrangement 6 3", "arrangement 7 3",
                                    "arrangement 7 4", "arrangement 8 3",
                                    "arrangement 9 4", "arrangement 10 4"};
constexpr const char* kE8Specs[] = {
    "hypercube 10",    "hypercube 14",    "crossed_cube 12",
    "folded_hypercube 12", "shuffle_cube 14", "kary_ncube 3 13",
    "star 8",          "pancake 8",       "arrangement 10 4",
};
constexpr const char* kE9Specs[] = {"hypercube 9", "hypercube 11",
                                    "hypercube 13"};
constexpr const char* kE13Specs[] = {"hypercube 7", "hypercube 9",
                                     "hypercube 11", "star 6", "star 7"};

std::vector<Row> paper_table() {
  std::vector<Row> table;
  const auto add = [&table](const char* experiment, Specs specs,
                            const std::string& algorithm,
                            Outcome (*run)(const Row&), unsigned param = 0) {
    for (const char* spec : specs) {
      table.push_back({experiment, spec, algorithm, run, param});
    }
  };
  // The implicit rows come first: peak RSS is a process-wide high-water
  // mark, so no CSR instance built earlier may raise theirs.
  add("E1", kImplicitSpecs, "set_builder_implicit", implicit_solve);
  add("E1", kE1Specs, "set_builder", driver_solve);
  add("E2", kE2Specs, "set_builder", theorem_solve);
  add("E2", kE2Specs, "chiang_tan", chiang_tan_solve);
  add("E2", kE2Specs, "yang_cycles", yang_solve);
  add("E3", kE3Specs, "set_builder", theorem_solve);
  add("E4", kE4Specs, "set_builder", theorem_solve);
  add("E5", kE5Specs, "set_builder", theorem_solve);
  add("E5", kStarSpecs, "chiang_tan", chiang_tan_solve);
  table.push_back({"E5", "nk_star 6 2", "set_builder", unsupported});
  add("E6", kE6Specs, "set_builder", theorem_solve);
  add("E7", kE7Specs, "set_builder", theorem_solve);
  table.push_back({"E7", "arrangement 6 2", "set_builder", unsupported});
  add("E8", kE8Specs, "set_builder", lookup_economy);
  add("E9", kE9Specs, "set_builder_model", distributed_model);
  add("E9", kE9Specs, "set_builder_protocol", distributed_protocol);
  add("E9", kE9Specs, "chiang_tan_model", distributed_chiang_tan);
  for (const ParentRule rule : {ParentRule::kLeastFirst, ParentRule::kSpread}) {
    table.push_back({"E12", "hypercube 12", "parent_rule " + to_string(rule),
                     parent_rule, static_cast<unsigned>(rule)});
  }
  for (const unsigned m : {5u, 6u, 7u, 8u}) {
    table.push_back({"E12", "hypercube 12",
                     "granularity m=" + std::to_string(m), granularity, m});
  }
  add("E12", kE1Specs, "probe_exit", probe_exit);
  table.push_back(
      {"E12", "hypercube 12", "probe_exit worst case", probe_exit_worst_case});
  add("E13", kE13Specs, "exact_dpll", exact_solve);
  add("E13", kE13Specs, "set_builder", driver_solve);
  return table;
}

int run(const std::string& out_path) {
  JsonBenchReport report("bench_paper");
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));
  report.set_meta("reps", JsonValue::num(kReps));

  const Timer total;
  std::size_t failed = 0;
  for (const Row& row : paper_table()) {
    Outcome out;
    try {
      out = row.run(row);
    } catch (const std::exception& e) {
      out.holds = false;
      out.fields = {{"error", JsonValue::str(e.what())}};
    }
    failed += out.holds ? 0 : 1;
    Fields fields = {{"experiment", JsonValue::str(row.experiment)},
                     {"spec", JsonValue::str(row.spec)},
                     {"algorithm", JsonValue::str(row.algorithm)},
                     {"claim", JsonValue::str(out.claim)},
                     {"claim_holds", flag(out.holds)}};
    fields.insert(fields.end(), out.fields.begin(), out.fields.end());
    report.add_result(std::move(fields));
    std::cout << row.experiment << "  " << row.spec << "  " << row.algorithm
              << ": " << (out.holds ? "holds" : "FAILS") << " (" << out.claim
              << ")\n";
  }
  report.set_meta("all_claims_hold", flag(failed == 0));
  report.set_meta("total_seconds", real(total.seconds()));

  if (!report.write_file(out_path)) return 1;
  std::cout << "wrote " << out_path << " (" << report.num_results()
            << " rows, " << total.seconds() << " s)\n";
  if (failed != 0) {
    std::cerr << "FAIL: " << failed << " claim(s) do not hold\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  std::string out_path = "BENCH_paper.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_paper [--out FILE]\n";
      return 2;
    }
  }
  return mmdiag::bench::run(out_path);
}
