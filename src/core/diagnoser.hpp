// The generic fault-diagnosis driver (Theorem 1 + the §5 algorithm).
//
// Given a syndrome for an unknown fault set F with |F| <= δ:
//   1. probe the components of a certified partition in order, running the
//      restricted Set_Builder from each seed, until one run certifies
//      all-healthy (at most δ+1 probes are ever needed: at most δ
//      components contain faults, and a fault-free component certifies by
//      calibration);
//   2. rerun Set_Builder unrestricted from that seed — U_r is then a set of
//      healthy nodes containing the whole certified component;
//   3. output N = the neighbours of U_r. By Theorem 1 (κ >= δ), N = F.
//
// Total cost O(Δ·N) time and at most (Δ-1)(Δ/2 + |U_r| - 1) syndrome
// look-ups for the final run (§6) — recorded as E1 and E8 in
// BENCH_paper.json.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/certified_partition.hpp"
#include "core/set_builder.hpp"
#include "graph/graph.hpp"
#include "mm/oracle.hpp"
#include "topology/topology.hpp"
#include "util/timer.hpp"

namespace mmdiag {

struct DiagnoserOptions {
  /// Fault bound δ; 0 means "use topology.default_fault_bound()".
  unsigned delta = 0;
  /// Parent rule for the certification probes (must match calibration).
  ParentRule rule = ParentRule::kSpread;
  /// Parent rule for the final unrestricted run. The final run starts from a
  /// seed already known healthy, so no certificate is needed and the paper's
  /// least-first rule applies: it admits members as soon as one 0-test
  /// appears, touching each edge at most once — about Δ/2 times fewer
  /// look-ups than the deferred spread rule (E12 in BENCH_paper.json).
  ParentRule final_rule = ParentRule::kLeastFirst;
  /// Calibrate every component (safe default) or just component 0.
  bool validate_all_components = true;
  /// Stop probe runs as soon as they certify instead of building the whole
  /// component (optimisation measured as E12 in BENCH_paper.json; the paper
  /// builds probes to their fixpoint).
  bool stop_probe_on_certify = false;
};

struct DiagnosisResult {
  bool success = false;
  std::vector<Node> faults;        // sorted ascending; meaningful on success
  std::string failure_reason;      // meaningful on failure

  // Accounting (§6 / benches):
  std::size_t probes = 0;          // restricted Set_Builder runs performed
  std::uint32_t certified_component = 0;
  std::uint64_t lookups = 0;       // syndrome look-ups across all phases
  std::size_t final_members = 0;   // |U_r| of the unrestricted run
  unsigned final_rounds = 0;       // r of the unrestricted run

  // Amortisation accounting. Calibration is the dominant setup cost, so
  // engine benches and the CLI report the setup/solve split per request
  // instead of one blended number. The split is measurement, never input:
  // two results are "bit-identical" when every field above this comment
  // matches; the timing fields vary run to run by construction.
  bool calibration_reused = false; // served without waiting on a
                                   // calibration build (cache hit that
                                   // didn't block behind the builder)
  bool used_local_fast_path = false; // answered by bgm_local_diagnose's
                                     // neighbourhood reads alone, no
                                     // global solve (directed serving only)
  double setup_seconds = 0;        // obtaining Topology+Graph+partition
                                   // (engine-filled; 0 on the direct path)
  double diagnose_seconds = 0;     // wall time of the diagnose() call
};

class Diagnoser {
 public:
  /// Builds the certified partition up front (throws
  /// DiagnosisUnsupportedError if the topology cannot support the bound).
  Diagnoser(const Topology& topology, const Graph& graph,
            DiagnoserOptions options = {});

  /// Adopts a partition certified elsewhere (the plan is shared, not
  /// copied). This is the cheap constructor: calibration is the dominant
  /// setup cost, so DiagnosisEngine certifies once and builds one Diagnoser
  /// per serve() lane from the same partition. `partition.delta` becomes the
  /// fault bound. Throws std::invalid_argument when options.rule differs
  /// from the rule the partition was calibrated under (mismatched probes
  /// may fail to replay the calibration and mis-diagnose), or when a
  /// non-zero options.delta conflicts with partition.delta.
  Diagnoser(const Graph& graph, CertifiedPartition partition,
            DiagnoserOptions options = {});

  /// Shared-ownership variant of the adopting constructor: the Diagnoser
  /// keeps the graph alive, so callers (the engine's calibration cache, any
  /// code handing Diagnosers across scopes) need not outlive it. Pass an
  /// aliasing shared_ptr to tie the graph's lifetime to a larger bundle.
  /// Throws std::invalid_argument on a null graph, and everything the
  /// raw-reference adopting constructor throws.
  Diagnoser(std::shared_ptr<const Graph> graph, CertifiedPartition partition,
            DiagnoserOptions options = {});

  /// Implicit-view constructors: the same three shapes over an
  /// ImplicitGraph. Phases 1-3 run the identical driver bodies through
  /// closed-form adjacency, so results and look-up counts match the CSR
  /// constructors bit for bit; only diagnose_cohort (which reads CSR
  /// layout directly) is unavailable and throws std::logic_error.
  Diagnoser(const Topology& topology, const ImplicitGraph& graph,
            DiagnoserOptions options = {});
  Diagnoser(const ImplicitGraph& graph, CertifiedPartition partition,
            DiagnoserOptions options = {});
  Diagnoser(std::shared_ptr<const ImplicitGraph> graph,
            CertifiedPartition partition, DiagnoserOptions options = {});

  /// Diagnose one syndrome. The oracle's look-up counter is reset first.
  /// Throws std::invalid_argument, before any look-up, when the oracle's
  /// graph differs from this solver's in node count or minimum or maximum
  /// degree (require_oracle_shape, O(1)).
  [[nodiscard]] DiagnosisResult diagnose(const SyndromeOracle& oracle);

  /// Diagnose up to 64 materialised syndromes over this calibration in
  /// bitsliced lockstep (SetBuilder::run_sliced): probes, final runs and
  /// boundary scans execute once per cohort instead of once per syndrome.
  /// Per-syndrome results — faults, probes, rounds, members, certified
  /// component, failure strings AND counted look-ups — are bit-identical
  /// to calling diagnose() on each oracle alone; each oracle's counter is
  /// reset and refilled exactly as the scalar path does, so one failing
  /// lane never perturbs the rest. Degrees above 64 (no word-wide rows)
  /// fall back to per-lane scalar solves. Throws std::invalid_argument,
  /// before any lane is touched, on an empty, >64-wide, or null-containing
  /// cohort, or when a lane's graph differs from this solver's in node
  /// count or minimum or maximum degree (O(1) per lane).
  [[nodiscard]] std::vector<DiagnosisResult> diagnose_cohort(
      const std::vector<const TableOracle*>& lanes);

  [[nodiscard]] unsigned delta() const noexcept { return delta_; }
  [[nodiscard]] const CertifiedPartition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const DiagnoserOptions& options() const noexcept {
    return options_;
  }

 private:
  template <class GV>
  DiagnosisResult diagnose_impl_on(const SyndromeOracle& oracle, const GV& g);

  void check_adopted_partition() const;
  void require_csr(const char* what) const;

  std::shared_ptr<const Graph> graph_owner_;  // null on the raw-pointer path
  const Graph* graph_ = nullptr;  // exactly one of graph_ / implicit_ is set
  std::shared_ptr<const ImplicitGraph> implicit_owner_;
  const ImplicitGraph* implicit_ = nullptr;
  DiagnoserOptions options_;
  unsigned delta_;
  CertifiedPartition partition_;
  // Probes run under options.rule (the calibration's), final runs under
  // options.final_rule (no certificate needed); the phases never overlap,
  // so one builder's O(N) scratch serves both, its rule set per phase.
  SetBuilder builder_;
};

}  // namespace mmdiag
