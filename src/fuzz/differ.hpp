// Differential checking of the §5 driver against the exact solver.
//
// One FuzzCase is checked end to end: the syndrome implied by (faults,
// behaviour, seed) is served lazily, ExactSolver::diagnose() provides the
// ground truth, and every driver configuration the library ships — both
// probe parent rules, stop_probe_on_certify on and off, the implicit view
// (hypercube cases, its final run split over two lanes) and the bitsliced
// cohort (both bit-identical to the sequential reference down to the
// look-up counts) — must agree with it exactly:
//
//   |F| <= delta  — every configuration must succeed and return F (the
//                   paper's worst-case guarantee, which calibration plus
//                   Theorem 1 promises for *all* such fault sets);
//   |F| >  delta  — outside the promise a configuration may fail, but it
//                   must fail *gracefully*: no exception and never a claim
//                   of more than delta faults. A *consistent-looking wrong*
//                   success is unavoidable for any algorithm that reads a
//                   sublinear fraction of the syndrome (a falsely-certified
//                   component is indistinguishable from a healthy one), so
//                   the "never mis-report success" invariant is checked at
//                   the layer that owns it: diagnose_and_verify, which must
//                   downgrade every inconsistent success to failure.
//
// Sabotage modes deliberately break the driver under test so the fuzzer's
// find -> minimize -> repro pipeline can itself be tested (and so a repro
// of the historical ParentRule-mismatch bug class stays reproducible).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/certified_partition.hpp"
#include "engine/engine.hpp"
#include "fuzz/fuzz_case.hpp"
#include "graph/graph.hpp"
#include "topology/topology.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {

/// Per-(spec, delta) setup shared by every case on that instance: two
/// calibration handles from the context's DiagnosisEngine, one per probe
/// parent rule the differ exercises. The engine calibrates on kCsr, so each
/// bundle owns its own graph build at every size; both builds are the same
/// deterministic adjacency, so faults and oracles drawn over graph()
/// address either one.
struct FuzzSetup {
  std::shared_ptr<const Calibration> spread;  // ParentRule::kSpread
  /// Calibrated under kLeastFirst; null when that rule cannot certify the
  /// instance (the differ then skips the least-first configuration).
  std::shared_ptr<const Calibration> least_first;

  [[nodiscard]] const Graph& graph() const noexcept { return spread->graph; }
};

class FuzzContext {
 public:
  FuzzContext();

  /// Cached lookup; calibrates through the engine on first use. Throws
  /// DiagnosisUnsupportedError when kSpread cannot certify `delta` and
  /// std::invalid_argument on unknown specs.
  const FuzzSetup& setup(const std::string& spec, unsigned delta);

  [[nodiscard]] DiagnosisEngine& engine() noexcept { return engine_; }

  /// Two lanes held for the whole run: the implicit voice splits its final
  /// run over them (SetBuilder::run_pulled), so every fuzz smoke, the
  /// sanitizer builds' included, drives the pulled run's lanes.
  [[nodiscard]] ThreadPool& lanes() noexcept { return lanes_; }

 private:
  static EngineOptions engine_options();

  /// The calibration owner. Sized so a whole fuzz run (every catalog entry
  /// × both rules) stays resident — the setup map below then only pins
  /// cheap shared_ptr pairs and the per-(spec, delta) "least-first
  /// uncertifiable" answer.
  DiagnosisEngine engine_;
  std::map<std::pair<std::string, unsigned>, FuzzSetup> cache_;
  ThreadPool lanes_{2};
};

enum class Sabotage : std::uint8_t {
  kNone,
  /// Adopt the kSpread-calibrated partition with options.rule=kLeastFirst —
  /// the exact misuse the partition-adopting Diagnoser ctor now rejects.
  kRuleMismatch,
  /// Drop the last fault from the sequential driver's answer before
  /// comparing — a stand-in for any "driver returns a wrong set" bug.
  kDropFault,
};

[[nodiscard]] std::string to_string(Sabotage s);
[[nodiscard]] Sabotage sabotage_from_string(const std::string& name);

struct Divergence {
  std::string config;  // which configuration disagreed (or "exact")
  std::string detail;
  /// Probe parent rule the diverging configuration ran under (kSpread for
  /// the exact solver and rule-free checks); recorded as provenance in the
  /// repro file.
  ParentRule rule = ParentRule::kSpread;
};

struct DiffReport {
  bool beyond_delta = false;  // |faults| > delta: graceful-failure regime
  std::vector<Divergence> divergences;
  [[nodiscard]] bool diverged() const noexcept { return !divergences.empty(); }
};

/// Run one case through every configuration. Exceptions escaping a driver
/// configuration are recorded as divergences, never propagated; exceptions
/// from setup (unknown spec, uncertifiable delta, fault id out of range)
/// propagate, since the case itself is malformed.
[[nodiscard]] DiffReport run_differential(FuzzContext& ctx, const FuzzCase& c,
                                          Sabotage sabotage = Sabotage::kNone);

}  // namespace mmdiag
