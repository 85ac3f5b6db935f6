// ChurnEngine — online diagnosis on a churned topology.
//
// Layered on DiagnosisEngine: the engine owns the immutable base
// calibration (shared, cache-evictable); the ChurnEngine owns the mutable
// part — a TopologyOverlay of applied deltas, the per-component
// certification state kept incrementally up to date, and a solve cache that
// lets syndrome-delta requests re-solve only the components whose rows
// changed.
//
// Degradation is per-component, following the component-diagnosability
// results (PAPERS.md): after removals, some components keep their
// certificate and keep serving exact answers while others are reported
// degraded with the evidence (contributor count, cover, unreached nodes)
// instead of failing the whole topology.
//
// The solve itself generalises the §5 driver to a churned, possibly
// disconnected live graph: probe certified components in ascending order;
// every healthy probe whose component is not yet classified drives one
// unrestricted run from that component's seed (so each live "island" with a
// certified component gets its own run); faults are the live boundaries
// N(U_r) of those runs (Theorem 1 per island); components are then
// classified from the union of run members and faults. Everything —
// probe order, run seeds, boundary scans, counted look-ups — is
// deterministic, so the warm incremental path is bit-identical to
// diagnose_cold(), the cold reference that recertifies and re-solves
// everything from scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "churn/recertify.hpp"
#include "churn/topology_overlay.hpp"
#include "core/set_builder.hpp"
#include "engine/engine.hpp"

namespace mmdiag {

enum class ComponentOutcome : std::uint8_t {
  kHealthy,              // classified; no faults inside
  kResolved,             // classified; faults pinned exactly
  kEmpty,                // all members removed — quiescent
  kDegradedUncertified,  // certificate lost to churn; not fully classified
  kDegradedUnreached,    // still certified, but live nodes unreachable from
                         // every healthy run (cut off by faults/churn)
};

[[nodiscard]] std::string to_string(ComponentOutcome outcome);

/// Per-component answer. `faults` lists faults pinned inside the component
/// (possibly partial knowledge for degraded outcomes); `detail` carries the
/// diagnosability evidence for degraded components. Equality is the
/// warm-vs-cold bit-identity contract.
struct ComponentDiagnosis {
  ComponentOutcome outcome = ComponentOutcome::kEmpty;
  std::vector<Node> faults;
  std::string detail;
  bool probed = false;         // probe executed during this solve
  bool probe_healthy = false;  // probe certified all-healthy
  std::uint64_t probe_lookups = 0;

  bool operator==(const ComponentDiagnosis&) const = default;
};

/// One unrestricted run the solve performed (one per live island that had a
/// healthy certified probe).
struct SolveRecord {
  std::uint32_t leader = 0;  // component whose seed drove the run
  std::uint64_t lookups = 0;
  std::uint64_t members = 0;
  unsigned rounds = 0;

  bool operator==(const SolveRecord&) const = default;
};

struct ChurnDiagnosis {
  /// True iff every component is kHealthy / kResolved / kEmpty.
  bool success = false;
  std::vector<Node> faults;  // union over components, ascending
  std::string failure_reason;
  std::vector<ComponentDiagnosis> components;
  std::vector<SolveRecord> runs;

  // --- accounting below: per-call costs, excluded from warm-vs-cold
  // identity (a cache hit spending fewer look-ups is the whole point).
  std::uint64_t spent_lookups = 0;    // masked look-ups this call performed
  std::size_t components_reprobed = 0;
  std::size_t components_reused = 0;  // probes served from the solve cache
  bool reused_cache = false;
};

/// Warm-vs-cold identity: everything above the accounting divider.
[[nodiscard]] bool identical(const ChurnDiagnosis& a, const ChurnDiagnosis& b);

struct ChurnEngineOptions {
  unsigned delta = 0;  // 0 = topology default fault bound
  ParentRule rule = ParentRule::kSpread;        // probe/certification rule
  ParentRule final_rule = ParentRule::kLeastFirst;  // unrestricted runs
};

class ChurnEngine {
 public:
  /// Pulls (or builds) the base calibration through the engine's cache.
  /// Throws what DiagnosisEngine::calibration throws.
  ChurnEngine(DiagnosisEngine& engine, const std::string& spec,
              ChurnEngineOptions options = {});

  ChurnEngine(const ChurnEngine&) = delete;
  ChurnEngine& operator=(const ChurnEngine&) = delete;

  /// Apply one topology delta: validates (std::invalid_argument, strong
  /// guarantee — a rejected delta changes nothing), updates the overlay,
  /// recertifies exactly the touched components, and drops the solve cache
  /// (unrestricted runs read masks topology-wide).
  void apply(const ChurnDelta& delta);

  /// Full solve against the current certification state; binds the solve
  /// cache to this oracle's current rows. Like diagnose_delta and
  /// diagnose_cold, throws std::invalid_argument, before any solve or cache
  /// change, when the oracle's view differs from the base calibration's in
  /// node count or minimum or maximum degree (require_oracle_shape, O(1)).
  [[nodiscard]] ChurnDiagnosis diagnose(const SyndromeOracle& oracle);

  /// Syndrome-delta solve: `changed_nodes` are the nodes whose *own rows*
  /// may differ from the rows the cache was built on (for a fault flip at f
  /// that is f and its neighbours). Re-probes only components owning a
  /// changed row and re-runs the global phase only if a changed row belongs
  /// to a run; everything else is served from the cache, bit-identical to a
  /// fresh diagnose() on the same oracle.
  [[nodiscard]] ChurnDiagnosis diagnose_delta(
      const SyndromeOracle& oracle, const std::vector<Node>& changed_nodes);

  /// Cold reference: recertify every component from scratch and solve with
  /// no cache. Never touches the incremental state — the harness calls this
  /// after every event to differentially check the warm path.
  [[nodiscard]] ChurnDiagnosis diagnose_cold(const SyndromeOracle& oracle);

  /// Cold recertification of every component (reference for certification()).
  [[nodiscard]] std::vector<ComponentChurnState> recertify_cold();

  /// Drop the solve cache explicitly (e.g. the oracle mutated in ways the
  /// caller cannot express as changed_nodes).
  void invalidate_solve_cache();

  /// Retire the base calibration from the underlying engine's cache
  /// (explicit eviction; see DiagnosisEngine::invalidate). This ChurnEngine
  /// keeps working — it shares ownership of the bundle.
  std::size_t retire_calibration();

  [[nodiscard]] std::vector<ComponentChurnState> certification() const;
  [[nodiscard]] const TopologyOverlay& overlay() const noexcept {
    return overlay_;
  }
  [[nodiscard]] const Calibration& calibration() const noexcept {
    return *cal_;
  }
  /// The CSR graph every churn structure reads: the calibration's own, or
  /// one built for an implicit calibration (csr_graph).
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::uint32_t num_components() const noexcept {
    return recert_.num_components();
  }
  [[nodiscard]] unsigned delta() const noexcept { return cal_->delta(); }
  /// Components recertified by apply() since construction (the incremental
  /// work actually done; the cold equivalent would be
  /// num_components() per apply()).
  [[nodiscard]] std::uint64_t components_recertified() const;

 private:
  struct SolveOutput {
    ChurnDiagnosis diagnosis;
    std::vector<std::uint64_t> run_members;  // union bitset over all runs
  };

  [[nodiscard]] SolveOutput full_solve(
      const SyndromeOracle& oracle,
      const std::vector<ComponentChurnState>& cert);
  void require_shape(const SyndromeOracle& oracle) const;

  DiagnosisEngine* engine_;
  std::shared_ptr<const Calibration> cal_;
  std::shared_ptr<const Graph> graph_;
  const PartitionPlan* plan_;
  unsigned delta_;
  TopologyOverlay overlay_;
  ChurnRecertifier recert_;
  ParentRule final_rule_;
  SetBuilder builder_;  // probes under cal_->rule(), final runs final_rule_

  mutable std::mutex mu_;
  std::vector<ComponentChurnState> cert_;
  std::uint64_t components_recertified_ = 0;

  bool cache_valid_ = false;
  SolveOutput cache_;
};

}  // namespace mmdiag
