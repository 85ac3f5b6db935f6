#include "churn/churn_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "churn/overlay_oracle.hpp"

namespace mmdiag {

namespace {

[[nodiscard]] bool get_bit(const std::vector<std::uint64_t>& bits,
                           Node v) noexcept {
  return (bits[v >> 6] >> (v & 63)) & 1;
}

void set_bit(std::vector<std::uint64_t>& bits, Node v) noexcept {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}

/// Theorem 1 on the live subgraph: nodes outside `members` that still have a
/// usable edge into it. Removed nodes and dead edges are excluded — a
/// removed node is not a fault, it is simply absent.
std::vector<Node> live_boundary(const Graph& g, const TopologyOverlay& overlay,
                                const std::vector<std::uint64_t>& members) {
  std::vector<Node> boundary;
  const std::size_t n = overlay.num_nodes();
  for (Node v = 0; v < n; ++v) {
    if (overlay.node_removed(v)) continue;
    if (get_bit(members, v)) continue;
    const std::uint64_t dead = overlay.dead_mask(v);
    const unsigned deg = g.degree(v);
    for (unsigned p = 0; p < deg; ++p) {
      if ((dead >> p) & 1) continue;
      if (get_bit(members, g.neighbor(v, p))) {
        boundary.push_back(v);
        break;
      }
    }
  }
  return boundary;
}

}  // namespace

std::string to_string(ComponentOutcome outcome) {
  switch (outcome) {
    case ComponentOutcome::kHealthy:
      return "healthy";
    case ComponentOutcome::kResolved:
      return "resolved";
    case ComponentOutcome::kEmpty:
      return "empty";
    case ComponentOutcome::kDegradedUncertified:
      return "degraded-uncertified";
    case ComponentOutcome::kDegradedUnreached:
      return "degraded-unreached";
  }
  return "unknown";
}

bool identical(const ChurnDiagnosis& a, const ChurnDiagnosis& b) {
  return a.success == b.success && a.faults == b.faults &&
         a.failure_reason == b.failure_reason &&
         a.components == b.components && a.runs == b.runs;
}

ChurnEngine::ChurnEngine(DiagnosisEngine& engine, const std::string& spec,
                         ChurnEngineOptions options)
    : engine_(&engine),
      cal_(engine.calibration(spec, options.delta, options.rule,
                              /*validate_all=*/true)),
      graph_(csr_graph(cal_)),
      plan_(cal_->partition.plan.get()),
      delta_(cal_->delta()),
      overlay_(*graph_),
      recert_(*graph_, cal_->partition.plan, delta_, cal_->rule()),
      final_rule_(options.final_rule),
      builder_(*graph_, cal_->rule()) {
  // The pristine overlay replays the calibration runs verbatim, so every
  // component starts certified.
  cert_ = recert_.recertify_all(overlay_);
}

void ChurnEngine::apply(const ChurnDelta& delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  overlay_.apply(delta);  // throws without mutating on invalid deltas
  const std::vector<std::uint32_t> touched = recert_.touched_components(delta);
  for (const std::uint32_t c : touched) {
    cert_[c] = recert_.recertify_component(overlay_, c);
  }
  components_recertified_ += touched.size();
  // Unrestricted runs read overlay masks topology-wide, so any topology
  // delta invalidates the solve cache (certification reuse stays granular).
  cache_valid_ = false;
}

std::vector<ComponentChurnState> ChurnEngine::certification() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cert_;
}

std::vector<ComponentChurnState> ChurnEngine::recertify_cold() {
  const std::lock_guard<std::mutex> lock(mu_);
  return recert_.recertify_all(overlay_);
}

void ChurnEngine::invalidate_solve_cache() {
  const std::lock_guard<std::mutex> lock(mu_);
  cache_valid_ = false;
}

std::size_t ChurnEngine::retire_calibration() {
  return engine_->invalidate(cal_->spec);
}

std::uint64_t ChurnEngine::components_recertified() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return components_recertified_;
}

void ChurnEngine::require_shape(const SyndromeOracle& oracle) const {
  require_oracle_shape("ChurnEngine", oracle, graph_->num_nodes(),
                       graph_->min_degree(), graph_->max_degree());
}

ChurnDiagnosis ChurnEngine::diagnose(const SyndromeOracle& oracle) {
  require_shape(oracle);
  const std::lock_guard<std::mutex> lock(mu_);
  cache_ = full_solve(oracle, cert_);
  cache_valid_ = true;
  return cache_.diagnosis;
}

ChurnDiagnosis ChurnEngine::diagnose_cold(const SyndromeOracle& oracle) {
  require_shape(oracle);
  const std::lock_guard<std::mutex> lock(mu_);
  return full_solve(oracle, recert_.recertify_all(overlay_)).diagnosis;
}

ChurnDiagnosis ChurnEngine::diagnose_delta(
    const SyndromeOracle& oracle, const std::vector<Node>& changed_nodes) {
  require_shape(oracle);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Node x : changed_nodes) {
    if (x >= overlay_.num_nodes()) {
      throw std::invalid_argument(
          "churn: diagnose_delta: changed node " + std::to_string(x) +
          " out of range (num_nodes = " +
          std::to_string(overlay_.num_nodes()) + ")");
    }
  }
  auto solve_fresh = [&](std::uint64_t wasted_lookups) {
    cache_ = full_solve(oracle, cert_);
    cache_valid_ = true;
    ChurnDiagnosis d = cache_.diagnosis;
    d.spent_lookups += wasted_lookups;
    return d;
  };
  if (!cache_valid_) return solve_fresh(0);

  // Soundness of reuse: a probe of component c consults only rows of c's
  // members; an unrestricted run consults only rows of its own members. A
  // changed row therefore forces (a) re-probing components that own a
  // changed node and (b) re-running the global phase only when a changed
  // node belongs to some run's member set. Rows of faults are never
  // consulted by either phase, so a fault's own row changing is free.
  std::vector<std::uint32_t> reprobe;
  for (const Node x : changed_nodes) {
    if (get_bit(cache_.run_members, x)) return solve_fresh(0);
    reprobe.push_back(plan_->component_of(x));
  }
  std::sort(reprobe.begin(), reprobe.end());
  reprobe.erase(std::unique(reprobe.begin(), reprobe.end()), reprobe.end());

  const OverlayOracle masked(overlay_, oracle);
  std::uint64_t spent = 0;
  std::size_t reprobed = 0;
  for (const std::uint32_t c : reprobe) {
    const ComponentDiagnosis& cached = cache_.diagnosis.components[c];
    if (!cached.probed) continue;  // skip decision depends only on runs/cert
    masked.reset_lookups();
    builder_.set_rule(cal_->rule());
    const SetBuilderResult probe = builder_.run_restricted(
        masked, cert_[c].seed, delta_, *plan_, c);
    spent += masked.lookups();
    ++reprobed;
    if (probe.all_healthy != cached.probe_healthy ||
        masked.lookups() != cached.probe_lookups) {
      // The changed rows altered this component's probe: the cached solve
      // no longer replays. Fall back to a full fresh solve.
      return solve_fresh(spent);
    }
  }

  ChurnDiagnosis d = cache_.diagnosis;
  d.spent_lookups = spent;
  // The cached solve's reprobe count is every probe it ran; the ones not
  // re-run here were served from the cache.
  d.components_reused = d.components_reprobed - reprobed;
  d.components_reprobed = reprobed;
  d.reused_cache = true;
  return d;
}

ChurnEngine::SolveOutput ChurnEngine::full_solve(
    const SyndromeOracle& oracle,
    const std::vector<ComponentChurnState>& cert) {
  const std::size_t n = overlay_.num_nodes();
  const std::size_t words = (n + 63) / 64;
  const std::uint32_t num_comps = recert_.num_components();
  SolveOutput solve;
  ChurnDiagnosis& out = solve.diagnosis;
  out.components.resize(num_comps);
  solve.run_members.assign(words, 0);
  std::vector<std::uint64_t> fault_bits(words, 0);
  std::size_t fault_count = 0;
  const OverlayOracle masked(overlay_, oracle);
  bool overflow = false;

  for (std::uint32_t c = 0; c < num_comps && !overflow; ++c) {
    ComponentDiagnosis& cd = out.components[c];
    if (cert[c].status == ComponentCertStatus::kEmpty) {
      cd.outcome = ComponentOutcome::kEmpty;
      cd.detail = "all members removed; component is quiescent";
      continue;
    }
    if (cert[c].status != ComponentCertStatus::kCertified) continue;
    bool unclassified = false;
    for (const Node m : recert_.component_members(c)) {
      if (overlay_.node_removed(m)) continue;
      if (!get_bit(solve.run_members, m) && !get_bit(fault_bits, m)) {
        unclassified = true;
        break;
      }
    }
    // Earlier runs already classified every live node here: its answer is
    // determined, so spending a probe would be pure overhead.
    if (!unclassified) continue;

    masked.reset_lookups();
    builder_.set_rule(cal_->rule());
    const SetBuilderResult probe = builder_.run_restricted(
        masked, cert[c].seed, delta_, *plan_, c);
    cd.probed = true;
    cd.probe_healthy = probe.all_healthy;
    cd.probe_lookups = masked.lookups();
    out.spent_lookups += cd.probe_lookups;
    ++out.components_reprobed;
    if (!cd.probe_healthy) continue;

    // A healthy probe certifies the seed healthy (§5): drive one
    // unrestricted run over this live island and read faults off its
    // boundary (Theorem 1).
    masked.reset_lookups();
    builder_.set_rule(final_rule_);
    const SetBuilderResult run = builder_.run(masked, cert[c].seed, delta_);
    const std::uint64_t run_lookups = masked.lookups();
    out.spent_lookups += run_lookups;
    out.runs.push_back(SolveRecord{c, run_lookups,
                                   static_cast<std::uint64_t>(
                                       run.members.size()),
                                   run.rounds});
    std::vector<std::uint64_t> local(words, 0);
    for (const Node m : run.members) set_bit(local, m);
    for (const Node v : live_boundary(*graph_, overlay_, local)) {
      if (!get_bit(fault_bits, v)) {
        set_bit(fault_bits, v);
        ++fault_count;
      }
    }
    for (std::size_t w = 0; w < words; ++w) solve.run_members[w] |= local[w];
    if (fault_count > delta_) overflow = true;
  }

  if (overflow) {
    out.success = false;
    out.failure_reason = "boundary larger than delta (" +
                         std::to_string(fault_count) + " > " +
                         std::to_string(delta_) +
                         "); the fault count exceeds the bound";
    for (ComponentDiagnosis& cd : out.components) {
      if (cd.outcome == ComponentOutcome::kEmpty) continue;
      cd.outcome = ComponentOutcome::kDegradedUnreached;
      cd.faults.clear();
      cd.detail = "fault bound exceeded; no per-component answer";
    }
    return solve;
  }

  for (Node v = 0; v < n; ++v) {
    if (get_bit(fault_bits, v)) out.faults.push_back(v);
  }

  bool all_ok = true;
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    ComponentDiagnosis& cd = out.components[c];
    if (cd.outcome == ComponentOutcome::kEmpty &&
        cert[c].status == ComponentCertStatus::kEmpty) {
      continue;
    }
    std::uint64_t classified = 0;
    for (const Node m : recert_.component_members(c)) {
      if (overlay_.node_removed(m)) continue;
      if (get_bit(fault_bits, m)) {
        cd.faults.push_back(m);
        ++classified;
      } else if (get_bit(solve.run_members, m)) {
        ++classified;
      }
    }
    if (classified == cert[c].live_nodes) {
      cd.outcome = cd.faults.empty() ? ComponentOutcome::kHealthy
                                     : ComponentOutcome::kResolved;
      if (cert[c].status == ComponentCertStatus::kDegraded) {
        cd.detail =
            "certificate lost to churn, but every live node was classified "
            "by certified runs";
      }
      continue;
    }
    all_ok = false;
    const std::uint64_t unreached = cert[c].live_nodes - classified;
    if (cert[c].status == ComponentCertStatus::kDegraded) {
      cd.outcome = ComponentOutcome::kDegradedUncertified;
      cd.detail = "certificate lost: " + std::to_string(cert[c].contributors) +
                  " contributors, covered " + std::to_string(cert[c].covered) +
                  " of " + std::to_string(cert[c].live_nodes) +
                  " live nodes (needs > " + std::to_string(delta_) +
                  " contributors and full cover)";
    } else {
      cd.outcome = ComponentOutcome::kDegradedUnreached;
      cd.detail = std::to_string(unreached) + " of " +
                  std::to_string(cert[c].live_nodes) +
                  " live nodes unreachable from any certified run";
    }
  }

  if (out.runs.empty()) {
    bool all_empty = true;
    bool any_certified = false;
    for (std::uint32_t c = 0; c < num_comps; ++c) {
      if (cert[c].status != ComponentCertStatus::kEmpty) all_empty = false;
      if (cert[c].status == ComponentCertStatus::kCertified) {
        any_certified = true;
      }
    }
    if (all_empty) {
      // Every node removed: the quiescent answer — nothing to diagnose,
      // nothing failed.
      out.success = true;
    } else {
      out.success = false;
      out.failure_reason =
          any_certified
              ? "no certified component produced a healthy probe; the fault "
                "count likely exceeds the bound delta = " +
                    std::to_string(delta_)
              : "no component remains certified under churn; topology-wide "
                "diagnosis unavailable";
    }
  } else {
    out.success = all_ok;
  }
  return solve;
}

}  // namespace mmdiag
