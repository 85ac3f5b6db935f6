#include "fuzz/differ.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "baselines/directed_exact.hpp"
#include "baselines/exact_solver.hpp"
#include "churn/churn_stream.hpp"
#include "churn/harness.hpp"
#include "core/diagnoser.hpp"
#include "core/directed_diagnoser.hpp"
#include "core/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/fault_set.hpp"
#include "mm/oracle.hpp"
#include "topology/registry.hpp"

namespace mmdiag {
namespace {

std::string join_nodes(const std::vector<Node>& nodes) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i) os << ' ';
    os << nodes[i];
  }
  os << '}';
  return os.str();
}

/// Checks one driver result against the regime the case is in. `truth` is
/// null in the beyond-delta regime (there is no promised answer there).
void check_result(DiffReport& report, const std::string& config,
                  const DiagnosisResult& result,
                  const std::vector<Node>* truth, const FuzzCase& c) {
  if (truth != nullptr) {
    if (!result.success) {
      report.divergences.push_back(
          {config, "driver failed inside the promise (|F| = " +
                       std::to_string(truth->size()) + " <= delta = " +
                       std::to_string(c.delta) + "): " +
                       result.failure_reason});
      return;
    }
    if (result.faults != *truth) {
      report.divergences.push_back(
          {config, "driver returned " + join_nodes(result.faults) +
                       " but the fault set is " + join_nodes(*truth)});
    }
    return;
  }
  // Beyond delta: failure is the expected graceful outcome. A success claim
  // may be wrong out here (no sublinear-lookup algorithm can avoid that),
  // but the boundary guard must still hold — claiming more than delta
  // faults would be a driver bug in any regime.
  if (result.success && result.faults.size() > c.delta) {
    report.divergences.push_back(
        {config, "beyond-delta success claims " +
                     std::to_string(result.faults.size()) +
                     " faults, more than delta = " + std::to_string(c.delta)});
  }
}

/// Runs one sequential configuration, converting any escape into a
/// divergence. Returns the result when the driver ran to completion.
std::optional<DiagnosisResult> run_config(DiffReport& report,
                                          const std::string& config,
                                          const Graph& graph,
                                          const CertifiedPartition& partition,
                                          const DiagnoserOptions& options,
                                          const FuzzCase& c,
                                          const FaultSet& faults) {
  try {
    Diagnoser diagnoser(graph, partition, options);
    const LazyOracle oracle(graph, faults, c.behavior, c.behavior_seed);
    return diagnoser.diagnose(oracle);
  } catch (const std::exception& e) {
    report.divergences.push_back(
        {config, std::string("driver threw: ") + e.what()});
    return std::nullopt;
  }
}

/// Compares every accounted field of two results; any mismatch between
/// dispatch paths of the same configuration is a hot-path bug by
/// definition (same algorithm, same oracle, same partition).
void check_dispatch_identical(DiffReport& report, const std::string& config,
                              const DiagnosisResult& reference,
                              const DiagnosisResult& other) {
  // failure_reason is part of the comparison: on a beyond-delta boundary
  // failure the fault list is cleared and the boundary size survives only
  // in the message, so dropping it would blind this guard to a phase-3
  // divergence between dispatch paths.
  if (other.success != reference.success ||
      other.faults != reference.faults ||
      other.failure_reason != reference.failure_reason ||
      other.lookups != reference.lookups ||
      other.probes != reference.probes ||
      other.certified_component != reference.certified_component ||
      other.final_members != reference.final_members ||
      other.final_rounds != reference.final_rounds) {
    report.divergences.push_back(
        {config, "not bit-identical to the virtual-dispatch reference "
                 "(faults " +
                     join_nodes(other.faults) + " vs " +
                     join_nodes(reference.faults) + ", lookups " +
                     std::to_string(other.lookups) + " vs " +
                     std::to_string(reference.lookups) + ")"});
  }
}

/// Directed (PMC/BGM) counterpart of run_differential. The voices:
///
///   directed-exact  — DirectedExactSolver vs the injected truth. Within the
///                     promise the injected set is always consistent, so "no
///                     solution" is a harness bug; a success must return
///                     exactly the injected set (the unique solution must be
///                     it). An ambiguous verdict is accepted — directed
///                     diagnosability at the catalog bounds is not
///                     re-derived here — and the driver must then agree.
///   directed-driver — DirectedDiagnoser vs the exact solver: same success
///                     flag, same faults, same failure reason, in BOTH
///                     regimes (the driver's deductions are sound for every
///                     <= delta candidate and its residue search is
///                     exhaustive, so any disagreement is a bug).
///   directed-table  — the driver over a materialised DirectedSyndrome
///                     table must be bit-identical (including look-ups) to
///                     the lazy-oracle run.
///   bgm-local       — every node's local diagnosis: definite answers must
///                     match the injected truth in BOTH regimes (rules 1-3
///                     hold for fault sets of any size), and per-request
///                     look-ups must stay within the node's 2-ball bound.
DiffReport run_differential_directed(FuzzContext& ctx, const FuzzCase& c,
                                     Sabotage sabotage) {
  // Model-tagged calibration: no Set_Builder certification, just the graph
  // and the bound, cached under the "|model=" key.
  const std::shared_ptr<const Calibration> cal = ctx.engine().calibration(
      c.spec, c.delta, ParentRule::kSpread, true, c.model);
  const Graph& graph = cal->graph;
  const std::size_t n = graph.num_nodes();
  for (const Node v : c.faults) {
    if (v >= n) {
      throw std::invalid_argument("fuzz case: fault id " + std::to_string(v) +
                                  " out of range for " + c.spec);
    }
  }
  const FaultSet faults(n, c.faults);

  DiffReport report;
  report.beyond_delta = faults.size() > c.delta;
  const std::vector<Node>* truth =
      report.beyond_delta ? nullptr : &faults.nodes();

  const DirectedLazyOracle lazy(graph, faults, c.model, c.behavior,
                                c.behavior_seed);

  std::optional<DiagnosisResult> exact;
  try {
    DirectedExactSolver solver(graph, lazy, c.delta);
    exact = solver.diagnose();
    if (truth != nullptr) {
      if (exact->success && exact->faults != *truth) {
        report.divergences.push_back(
            {"directed-exact",
             "exact solver returned " + join_nodes(exact->faults) +
                 " for fault set " + join_nodes(*truth)});
      } else if (!exact->success &&
                 exact->failure_reason.rfind("ambiguous", 0) != 0) {
        // The injected set is consistent by construction, so only
        // ambiguity can stop the exact solver inside the promise.
        report.divergences.push_back(
            {"directed-exact",
             "exact solver claims no consistent candidate, but the injected "
             "set " +
                 join_nodes(*truth) + " is one: " + exact->failure_reason});
      }
    }
  } catch (const std::exception& e) {
    report.divergences.push_back(
        {"directed-exact", std::string("exact solver threw: ") + e.what()});
  }

  std::optional<DiagnosisResult> driver;
  try {
    DirectedDiagnoser diagnoser(graph, c.delta);
    driver = diagnoser.diagnose(lazy);
    if (driver->success && driver->faults.size() > c.delta) {
      report.divergences.push_back(
          {"directed-driver",
           "success claims " + std::to_string(driver->faults.size()) +
               " faults, more than delta = " + std::to_string(c.delta)});
    }
    if (exact && (driver->success != exact->success ||
                  driver->faults != exact->faults ||
                  driver->failure_reason != exact->failure_reason)) {
      report.divergences.push_back(
          {"directed-driver",
           "driver disagrees with the exact solver (driver " +
               (driver->success ? join_nodes(driver->faults)
                                : "failure: " + driver->failure_reason) +
               " vs exact " +
               (exact->success ? join_nodes(exact->faults)
                               : "failure: " + exact->failure_reason) +
               ")"});
    }
  } catch (const std::exception& e) {
    report.divergences.push_back(
        {"directed-driver", std::string("driver threw: ") + e.what()});
  }

  // Table-oracle bit-identity: same deductions, same order, same counts.
  if (driver) {
    try {
      const DirectedSyndrome syndrome = generate_directed_syndrome(
          graph, faults, c.model, c.behavior, c.behavior_seed);
      const DirectedTableOracle table(graph, syndrome, c.model);
      DirectedDiagnoser diagnoser(graph, c.delta);
      const DiagnosisResult r = diagnoser.diagnose(table);
      if (r.success != driver->success || r.faults != driver->faults ||
          r.failure_reason != driver->failure_reason ||
          r.lookups != driver->lookups) {
        report.divergences.push_back(
            {"directed-table",
             "table-oracle run not bit-identical to the lazy run (faults " +
                 join_nodes(r.faults) + " vs " + join_nodes(driver->faults) +
                 ", lookups " + std::to_string(r.lookups) + " vs " +
                 std::to_string(driver->lookups) + ")"});
      }
    } catch (const std::exception& e) {
      report.divergences.push_back(
          {"directed-table", std::string("driver threw: ") + e.what()});
    }
  }

  // BGM local diagnosis: definite answers are promises with no fault-bound
  // caveat, so they are checked against the injected truth in both regimes.
  if (c.model == DiagnosisModel::kBGM) {
    try {
      for (Node u = 0; u < n; ++u) {
        const LocalDiagnosisResult local = bgm_local_diagnose(graph, lazy, u);
        const bool injected_faulty = faults.is_faulty(u);
        if ((local.status == LocalDiagnosisStatus::kHealthy &&
             injected_faulty) ||
            (local.status == LocalDiagnosisStatus::kFaulty &&
             !injected_faulty)) {
          report.divergences.push_back(
              {"bgm-local", "node " + std::to_string(u) + " reported " +
                                to_string(local.status) + " but is " +
                                (injected_faulty ? "faulty" : "healthy")});
          break;
        }
        std::uint64_t bound = 2 * std::uint64_t{graph.degree(u)};
        for (const Node v : graph.neighbors(u)) {
          bound += graph.degree(v) - 1;
        }
        if (local.lookups > bound) {
          report.divergences.push_back(
              {"bgm-local", "node " + std::to_string(u) + " consumed " +
                                std::to_string(local.lookups) +
                                " look-ups, above its 2-ball bound " +
                                std::to_string(bound)});
          break;
        }
      }
    } catch (const std::exception& e) {
      report.divergences.push_back(
          {"bgm-local", std::string("local diagnosis threw: ") + e.what()});
    }
  }

  // Deliberate breakage, for testing the fuzzer itself (the directed
  // analogues of the MM* sabotage modes: a guard-rejected misuse and a
  // tampered answer).
  if (sabotage == Sabotage::kRuleMismatch) {
    try {
      const Graph tiny = build_graph_from_edges(2, {{0, 1}});
      const FaultSet none(2, {});
      const DirectedLazyOracle mismatched(tiny, none, c.model, c.behavior,
                                          c.behavior_seed);
      DirectedDiagnoser diagnoser(graph, c.delta);
      const DiagnosisResult r = diagnoser.diagnose(mismatched);
      check_result(report, "sabotage-rule-mismatch", r, truth, c);
    } catch (const std::exception& e) {
      report.divergences.push_back(
          {"sabotage-rule-mismatch", std::string("driver threw: ") + e.what()});
    }
  } else if (sabotage == Sabotage::kDropFault && driver) {
    DiagnosisResult tampered = *driver;
    if (tampered.success && !tampered.faults.empty()) {
      tampered.faults.pop_back();
      check_result(report, "sabotage-drop-fault", tampered, truth, c);
    }
  }

  return report;
}

}  // namespace

EngineOptions FuzzContext::engine_options() {
  EngineOptions options;
  // Every catalog entry under both rules, with headroom for off-catalog
  // replays; fuzzing is sequential, so one serve lane suffices.
  options.cache_capacity = 64;
  options.threads = 1;
  return options;
}

FuzzContext::FuzzContext() : engine_(engine_options()) {}

const FuzzSetup& FuzzContext::setup(const std::string& spec, unsigned delta) {
  const auto key = std::make_pair(spec, delta);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  FuzzSetup s;
  s.spread = engine_.calibration(spec, delta, ParentRule::kSpread);
  try {
    s.least_first = engine_.calibration(spec, delta, ParentRule::kLeastFirst);
  } catch (const DiagnosisUnsupportedError&) {
    // kSpread certifies strictly more instances; run without this config.
  }
  return cache_.emplace(key, std::move(s)).first->second;
}

std::string to_string(Sabotage s) {
  switch (s) {
    case Sabotage::kNone:
      return "none";
    case Sabotage::kRuleMismatch:
      return "rule-mismatch";
    case Sabotage::kDropFault:
      return "drop-fault";
  }
  return "?";
}

Sabotage sabotage_from_string(const std::string& name) {
  for (const Sabotage s :
       {Sabotage::kNone, Sabotage::kRuleMismatch, Sabotage::kDropFault}) {
    if (name == to_string(s)) return s;
  }
  throw std::invalid_argument("unknown sabotage mode '" + name + "'");
}

DiffReport run_differential(FuzzContext& ctx, const FuzzCase& c,
                            Sabotage sabotage) {
  if (is_directed_model(c.model)) {
    return run_differential_directed(ctx, c, sabotage);
  }
  const FuzzSetup& s = ctx.setup(c.spec, c.delta);
  const std::size_t n = s.graph().num_nodes();
  for (const Node v : c.faults) {
    if (v >= n) {
      throw std::invalid_argument("fuzz case: fault id " + std::to_string(v) +
                                  " out of range for " + c.spec);
    }
  }
  const FaultSet faults(n, c.faults);

  DiffReport report;
  report.beyond_delta = faults.size() > c.delta;
  const std::vector<Node>* truth =
      report.beyond_delta ? nullptr : &faults.nodes();

  // Ground truth: within the promise the syndrome must determine F
  // uniquely, and the exact solver must find exactly it. A divergence here
  // is a harness or diagnosability bug rather than a driver bug — worth
  // surfacing just as loudly.
  if (truth != nullptr) {
    const LazyOracle oracle(s.graph(), faults, c.behavior, c.behavior_seed);
    try {
      ExactSolver solver(s.graph(), oracle, c.delta);
      const DiagnosisResult exact = solver.diagnose();
      if (!exact.success || exact.faults != *truth) {
        report.divergences.push_back(
            {"exact",
             exact.success
                 ? "exact solver returned " + join_nodes(exact.faults) +
                       " for fault set " + join_nodes(*truth)
                 : "exact solver found no unique solution: " +
                       exact.failure_reason});
      }
    } catch (const std::exception& e) {
      report.divergences.push_back(
          {"exact", std::string("exact solver threw: ") + e.what()});
    }
  }

  // Sequential configurations.
  DiagnoserOptions spread_options;  // rule = kSpread, stop = false
  const std::optional<DiagnosisResult> reference = run_config(
      report, "seq-spread", s.graph(), s.spread->partition, spread_options, c, faults);
  if (reference) {
    check_result(report, "seq-spread", *reference, truth, c);
    // Implicit-graph voice: the same case through closed-form adjacency.
    // The implicit view enumerates neighbours in CSR order, so faults,
    // look-ups and probes must all match the materialised reference bit
    // for bit — any drift is an adjacency-formula bug.
    if (s.spread->topology->info().degree <= ImplicitGraph::kMaxDegree) {
      try {
        const ImplicitGraph iview(*s.spread->topology);
        Diagnoser diagnoser(iview, s.spread->partition, spread_options);
        const ImplicitLazyOracle oracle(iview, faults, c.behavior,
                                        c.behavior_seed);
        check_dispatch_identical(report, "seq-spread-implicit", *reference,
                                 diagnoser.diagnose(oracle));
      } catch (const std::exception& e) {
        report.divergences.push_back(
            {"seq-spread-implicit", std::string("driver threw: ") + e.what()});
      }
    }
  }

  // The verifying wrapper owns the beyond-delta safety net: it must return
  // F inside the promise exactly like the raw driver, and outside it every
  // success it lets through must be consistent with the full syndrome.
  try {
    Diagnoser diagnoser(s.graph(), s.spread->partition, spread_options);
    const LazyOracle oracle(s.graph(), faults, c.behavior, c.behavior_seed);
    const DiagnosisResult verified = diagnose_and_verify(diagnoser, oracle);
    if (truth != nullptr) {
      check_result(report, "seq-spread-verified", verified, truth, c);
    } else if (verified.success) {
      const FaultSet claimed(s.graph().num_nodes(), verified.faults);
      const LazyOracle fresh(s.graph(), faults, c.behavior, c.behavior_seed);
      if (verified.faults.size() > c.delta ||
          !syndrome_consistent(s.graph(), fresh, claimed)) {
        report.divergences.push_back(
            {"seq-spread-verified",
             "verified driver let an inconsistent beyond-delta success "
             "through: " +
                 join_nodes(verified.faults)});
      }
    }
  } catch (const std::exception& e) {
    report.divergences.push_back(
        {"seq-spread-verified", std::string("driver threw: ") + e.what()});
  }

  DiagnoserOptions eager = spread_options;
  eager.stop_probe_on_certify = true;
  if (const auto r = run_config(report, "seq-spread-stopcert", s.graph(),
                                s.spread->partition, eager, c, faults)) {
    check_result(report, "seq-spread-stopcert", *r, truth, c);
  }

  if (s.least_first) {
    DiagnoserOptions least;
    least.rule = ParentRule::kLeastFirst;
    const std::string config =
        "seq-" + parent_rule_to_string(ParentRule::kLeastFirst);
    const std::size_t before = report.divergences.size();
    if (const auto r = run_config(report, config, s.graph(), s.least_first->partition,
                                  least, c, faults)) {
      check_result(report, config, *r, truth, c);
    }
    for (std::size_t i = before; i < report.divergences.size(); ++i) {
      report.divergences[i].rule = ParentRule::kLeastFirst;
    }
  }

  // Bitsliced cohort voice: the case rides a 4-lane cohort interleaved with
  // fault-free lanes, so lane admission masks genuinely diverge mid-run and
  // the peel path is exercised. Every lane must be bit-identical to a
  // scalar solve of its own syndrome: the case lanes against the
  // sequential reference, the fault-free lanes against a scalar solve of
  // the fault-free table.
  if (reference) {
    try {
      Diagnoser diagnoser(s.graph(), s.spread->partition, spread_options);
      const Syndrome case_syndrome =
          generate_syndrome(s.graph(), faults, c.behavior, c.behavior_seed);
      const FaultSet no_faults(s.graph().num_nodes(), {});
      const Syndrome healthy_syndrome =
          generate_syndrome(s.graph(), no_faults, c.behavior, c.behavior_seed);
      const TableOracle case0(s.graph(), case_syndrome);
      const TableOracle case1(s.graph(), case_syndrome);
      const TableOracle healthy0(s.graph(), healthy_syndrome);
      const TableOracle healthy1(s.graph(), healthy_syndrome);
      const TableOracle healthy_scalar(s.graph(), healthy_syndrome);
      const DiagnosisResult healthy_expected =
          diagnoser.diagnose(healthy_scalar);
      const auto cohort =
          diagnoser.diagnose_cohort({&healthy0, &case0, &healthy1, &case1});
      check_dispatch_identical(report, "cohort-bitsliced", healthy_expected,
                               cohort[0]);
      check_dispatch_identical(report, "cohort-bitsliced", *reference,
                               cohort[1]);
      check_dispatch_identical(report, "cohort-bitsliced", healthy_expected,
                               cohort[2]);
      check_dispatch_identical(report, "cohort-bitsliced", *reference,
                               cohort[3]);
    } catch (const std::exception& e) {
      report.divergences.push_back(
          {"cohort-bitsliced", std::string("driver threw: ") + e.what()});
    }
  }

  // Churn voice: derive a short hostile churn stream from the case seeds
  // and replay it — every warm incremental answer (certification reuse +
  // solve cache) must stay bit-identical to cold full recalibration under
  // the same remove/repair/diagnose interleaving.
  try {
    ChurnStreamConfig churn_config;
    churn_config.spec = c.spec;
    churn_config.delta = c.delta;
    churn_config.seed = mix64(c.inject_seed, c.behavior_seed);
    churn_config.events = 12;
    const ChurnStream stream =
        generate_churn_stream(ctx.engine(), churn_config);
    const ChurnHarnessReport churn = run_churn_stream(ctx.engine(), stream);
    for (const std::string& d : churn.divergences) {
      report.divergences.push_back({"churn-incremental", d});
    }
  } catch (const std::exception& e) {
    report.divergences.push_back(
        {"churn-incremental", std::string("harness threw: ") + e.what()});
  }

  // Deliberate breakage, for testing the fuzzer itself.
  if (sabotage == Sabotage::kRuleMismatch) {
    DiagnoserOptions mismatched;
    mismatched.rule = ParentRule::kLeastFirst;  // partition calibrated kSpread
    const std::size_t before = report.divergences.size();
    if (const auto r = run_config(report, "sabotage-rule-mismatch", s.graph(),
                                  s.spread->partition, mismatched, c, faults)) {
      check_result(report, "sabotage-rule-mismatch", *r, truth, c);
    }
    for (std::size_t i = before; i < report.divergences.size(); ++i) {
      report.divergences[i].rule = ParentRule::kLeastFirst;
    }
  } else if (sabotage == Sabotage::kDropFault && reference) {
    DiagnosisResult tampered = *reference;
    if (tampered.success && !tampered.faults.empty()) {
      tampered.faults.pop_back();
      check_result(report, "sabotage-drop-fault", tampered, truth, c);
    }
  }

  return report;
}

}  // namespace mmdiag
