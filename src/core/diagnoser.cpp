#include "core/diagnoser.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>
#include <type_traits>

namespace mmdiag {

namespace {

const Graph& deref_graph(const std::shared_ptr<const Graph>& graph) {
  if (!graph) throw std::invalid_argument("Diagnoser: null graph");
  return *graph;
}

const ImplicitGraph& deref_implicit(
    const std::shared_ptr<const ImplicitGraph>& graph) {
  if (!graph) throw std::invalid_argument("Diagnoser: null graph");
  return *graph;
}

/// §6: a final run consults at most (Δ-1)(Δ/2 + |U_r| - 1) syndrome
/// results, for any oracle and any fault count — round 1 at most C(Δ,2)
/// pairs of the seed's neighbours, every later member at most Δ-1 against
/// its parent. Asserted on every solve (DESIGN.md §3).
[[maybe_unused]] bool within_final_bound(std::uint64_t lookups,
                                         std::uint64_t max_degree,
                                         std::uint64_t members) {
  return lookups <= max_degree * (max_degree - 1) / 2 +
                        (members - 1) * (max_degree - 1);
}

unsigned resolve_delta(const Topology& topology, const DiagnoserOptions& o) {
  if (o.delta != 0) return o.delta;
  const unsigned bound = topology.default_fault_bound();
  if (bound == 0) {
    throw DiagnosisUnsupportedError(
        topology.info().name +
        ": diagnosability is not established for these parameters (see §5's "
        "validity conditions); pass DiagnoserOptions::delta explicitly");
  }
  return bound;
}

}  // namespace

Diagnoser::Diagnoser(const Topology& topology, const Graph& graph,
                     DiagnoserOptions options)
    : Diagnoser(graph,
                find_certified_partition(topology, graph,
                                         resolve_delta(topology, options),
                                         options.rule,
                                         options.validate_all_components),
                options) {}

Diagnoser::Diagnoser(const Graph& graph, CertifiedPartition partition,
                     DiagnoserOptions options)
    : graph_(&graph),
      options_(options),
      delta_(partition.delta),
      partition_(std::move(partition)),
      builder_(graph, options.rule) {
  check_adopted_partition();
}

Diagnoser::Diagnoser(std::shared_ptr<const Graph> graph,
                     CertifiedPartition partition, DiagnoserOptions options)
    : Diagnoser(deref_graph(graph), std::move(partition), options) {
  graph_owner_ = std::move(graph);
}

Diagnoser::Diagnoser(const Topology& topology, const ImplicitGraph& graph,
                     DiagnoserOptions options)
    : Diagnoser(graph,
                find_certified_partition(topology, graph,
                                         resolve_delta(topology, options),
                                         options.rule,
                                         options.validate_all_components),
                options) {}

Diagnoser::Diagnoser(const ImplicitGraph& graph, CertifiedPartition partition,
                     DiagnoserOptions options)
    : implicit_(&graph),
      options_(options),
      delta_(partition.delta),
      partition_(std::move(partition)),
      builder_(graph, options.rule) {
  check_adopted_partition();
}

Diagnoser::Diagnoser(std::shared_ptr<const ImplicitGraph> graph,
                     CertifiedPartition partition, DiagnoserOptions options)
    : Diagnoser(deref_implicit(graph), std::move(partition), options) {
  implicit_owner_ = std::move(graph);
}

void Diagnoser::check_adopted_partition() const {
  if (!partition_.plan) {
    throw std::invalid_argument("Diagnoser: certified partition has no plan");
  }
  if (options_.rule != partition_.rule) {
    // A fault-free component only certifies at diagnosis time because the
    // probe replays the calibration run; a different rule grows a different
    // tree and the replay argument collapses.
    throw std::invalid_argument(
        "Diagnoser: options.rule (" + to_string(options_.rule) +
        ") does not match the partition's calibration rule (" +
        to_string(partition_.rule) + ")");
  }
  if (options_.delta != 0 && options_.delta != partition_.delta) {
    throw std::invalid_argument(
        "Diagnoser: options.delta (" + std::to_string(options_.delta) +
        ") conflicts with the adopted partition's certified bound (" +
        std::to_string(partition_.delta) + "); pass 0 to adopt the bound");
  }
}

void Diagnoser::require_csr(const char* what) const {
  if (graph_ == nullptr) {
    throw std::logic_error(std::string("Diagnoser: ") + what +
                           " requires a CSR graph, not an implicit view");
  }
}

// The phase-1/2/3 driver, instantiated once per graph view.
template <class GV>
DiagnosisResult Diagnoser::diagnose_impl_on(const SyndromeOracle& oracle,
                                            const GV& g, ThreadPool* lanes) {
  oracle.reset_lookups();
  const Timer solve_timer;
  DiagnosisResult out;
  const PartitionPlan& plan = *partition_.plan;

  // Phase 1: probe seeds until a restricted run certifies. At most δ
  // components can contain a fault, so δ+1 probes suffice when |F| <= δ.
  const std::size_t max_probes =
      std::min<std::size_t>(plan.num_components(), std::size_t{delta_} + 1);
  std::uint32_t certified = 0;
  bool found = false;
  builder_.set_rule(options_.rule);
  builder_.set_stop_on_certify(options_.stop_probe_on_certify);
  for (std::size_t c = 0; c < max_probes; ++c) {
    ++out.probes;
    const auto probe = builder_.run_restricted(
        oracle, plan.seed_of(c), delta_, plan, static_cast<std::uint32_t>(c));
    if (probe.all_healthy) {
      certified = static_cast<std::uint32_t>(c);
      found = true;
      break;
    }
  }
  builder_.set_stop_on_certify(false);
  if (!found) {
    out.lookups = oracle.lookups();
    out.failure_reason =
        "no component certified within delta+1 probes; the fault count "
        "likely exceeds the bound delta = " +
        std::to_string(delta_);
    out.diagnose_seconds = solve_timer.seconds();
    return out;
  }
  out.certified_component = certified;

  // Phase 2: unrestricted run from the certified seed. Every member is
  // healthy (the seed is, and health propagates down the 0-tests) — no
  // certificate is required, so the cheaper final rule applies. On the
  // hypercube view a least-first run is pulled by the word, over `lanes`.
  [[maybe_unused]] const std::uint64_t before_final = oracle.lookups();
  builder_.set_rule(options_.final_rule);
  const Node seed = plan.seed_of(certified);
  if (std::is_same_v<GV, ImplicitGraph> &&
      options_.final_rule == ParentRule::kLeastFirst) {
    const SetBuilderCounts full = builder_.run_pulled(oracle, seed, delta_,
                                                      lanes);
    out.final_members = full.member_count;
    out.final_rounds = full.rounds;
  } else {
    const SetBuilderResult full = builder_.run(oracle, seed, delta_);
    out.final_members = full.members.size();
    out.final_rounds = full.rounds;
  }
  assert(within_final_bound(oracle.lookups() - before_final, g.max_degree(),
                            out.final_members));

  // Phase 3: N(U_r) is exactly F (Theorem 1). On the success path U_r is
  // within δ of the whole graph, so scan the *complement*, one membership
  // word at a time: N/64 word reads find the clear bits (the last word's
  // padding masked off), and only those ~|F| candidates are checked for a
  // member neighbour. Equivalent to walking every member's adjacency (same
  // set, by definition of N), ~Δ× cheaper, and ascending by construction —
  // no sort, no dedup scratch.
  const std::span<const std::uint64_t> in_set = builder_.last_set_words();
  const std::size_t num_nodes = g.num_nodes();
  for (std::size_t w = 0; w < in_set.size(); ++w) {
    std::uint64_t outside = ~in_set[w];
    if ((w + 1) * 64 > num_nodes) {
      outside &= (std::uint64_t{1} << (num_nodes & 63)) - 1;
    }
    for (; outside != 0; outside &= outside - 1) {
      const auto v = static_cast<Node>((w << 6) + std::countr_zero(outside));
      for (const Node x : g.neighbors(v)) {
        if (builder_.in_last_set(x)) {
          out.faults.push_back(v);
          break;
        }
      }
    }
  }
  out.lookups = oracle.lookups();
  out.diagnose_seconds = solve_timer.seconds();

  if (out.faults.size() > delta_) {
    // Impossible under the |F| <= δ promise (N ⊆ F); report rather than lie.
    out.failure_reason = "boundary larger than delta (" +
                         std::to_string(out.faults.size()) + " > " +
                         std::to_string(delta_) +
                         "); the fault count exceeds the bound";
    out.faults.clear();
    return out;
  }
  out.success = true;
  return out;
}

DiagnosisResult Diagnoser::diagnose(const SyndromeOracle& oracle,
                                    ThreadPool* lanes) {
  if (implicit_ != nullptr) {
    require_oracle_shape("Diagnoser", oracle, implicit_->num_nodes(),
                         implicit_->min_degree(), implicit_->max_degree());
    return diagnose_impl_on(oracle, *implicit_, lanes);
  }
  require_oracle_shape("Diagnoser", oracle, graph_->num_nodes(),
                       graph_->min_degree(), graph_->max_degree());
  return diagnose_impl_on(oracle, *graph_, lanes);
}

// The cohort driver: the phase-1/2/3 structure of diagnose_impl_on with
// lane masks for control flow. Each lane leaves the probe stream the
// moment its component certifies — exactly where its scalar loop would
// break — so per-lane probe counts and look-ups match the scalar path bit
// for bit.
std::vector<DiagnosisResult> Diagnoser::diagnose_cohort(
    const std::vector<const TableOracle*>& lanes) {
  require_csr("diagnose_cohort");
  if (lanes.empty() || lanes.size() > BitSlicedOracle::kMaxLanes) {
    throw std::invalid_argument("Diagnoser: cohort width must be 1..64 (got " +
                                std::to_string(lanes.size()) + ")");
  }
  for (const TableOracle* lane : lanes) {
    if (lane == nullptr) {
      throw std::invalid_argument("Diagnoser: null oracle in cohort");
    }
    require_oracle_shape("Diagnoser", *lane, graph_->num_nodes(),
                         graph_->min_degree(), graph_->max_degree());
  }
  const unsigned width = static_cast<unsigned>(lanes.size());
  std::vector<DiagnosisResult> out(width);

  // Rows wider than one word cannot bitslice; the whole cohort peels to
  // the scalar path (identical results, just not in lockstep).
  if (graph_->max_degree() > 64) {
    for (unsigned i = 0; i < width; ++i) out[i] = diagnose(*lanes[i]);
    return out;
  }

  const Timer solve_timer;
  BitSlicedOracle sliced(*graph_);
  for (const TableOracle* lane : lanes) {
    lane->reset_lookups();
    sliced.add_lane(*lane);
  }
  const std::uint64_t live = sliced.full_mask();
  const PartitionPlan& plan = *partition_.plan;

  std::array<SetBuilderCounts, BitSlicedOracle::kMaxLanes> lane_run;
  std::array<std::uint32_t, BitSlicedOracle::kMaxLanes> component_of{};

  // Phase 1, lockstep: each probe runs once for every not-yet-certified
  // lane.
  const std::size_t max_probes =
      std::min<std::size_t>(plan.num_components(), std::size_t{delta_} + 1);
  std::uint64_t certified = 0;
  builder_.set_rule(options_.rule);
  builder_.set_stop_on_certify(options_.stop_probe_on_certify);
  for (std::size_t c = 0; c < max_probes; ++c) {
    const std::uint64_t probing = live & ~certified;
    if (probing == 0) break;
    builder_.run_sliced_restricted(sliced, plan.seed_of(c), delta_, probing,
                                   plan, static_cast<std::uint32_t>(c),
                                   lane_run.data());
    for (std::uint64_t m = probing; m != 0; m &= m - 1) {
      const unsigned L = static_cast<unsigned>(std::countr_zero(m));
      ++out[L].probes;
      if (lane_run[L].all_healthy) {
        certified |= std::uint64_t{1} << L;
        component_of[L] = static_cast<std::uint32_t>(c);
      }
    }
  }
  builder_.set_stop_on_certify(false);
  for (std::uint64_t m = live & ~certified; m != 0; m &= m - 1) {
    out[std::countr_zero(m)].failure_reason =
        "no component certified within delta+1 probes; the fault count "
        "likely exceeds the bound delta = " +
        std::to_string(delta_);
  }

  // Phases 2+3 per distinct certified component: lanes that certified the
  // same seed share one unrestricted lockstep run and one boundary scan.
  builder_.set_rule(options_.final_rule);
  const std::size_t num_nodes = graph_->num_nodes();
  std::uint64_t remaining = certified;
  while (remaining != 0) {
    const std::uint32_t comp = component_of[std::countr_zero(remaining)];
    std::uint64_t group = 0;
    for (std::uint64_t m = remaining; m != 0; m &= m - 1) {
      const unsigned L = static_cast<unsigned>(std::countr_zero(m));
      if (component_of[L] == comp) group |= std::uint64_t{1} << L;
    }
    remaining &= ~group;

#ifndef NDEBUG
    std::array<std::uint64_t, BitSlicedOracle::kMaxLanes> before_final{};
    for (std::uint64_t m = group; m != 0; m &= m - 1) {
      const unsigned L = static_cast<unsigned>(std::countr_zero(m));
      before_final[L] = sliced.lane_lookups(L);
    }
#endif
    builder_.run_sliced(sliced, plan.seed_of(comp), delta_, group,
                        lane_run.data());
    for (std::uint64_t m = group; m != 0; m &= m - 1) {
      const unsigned L = static_cast<unsigned>(std::countr_zero(m));
      assert(within_final_bound(sliced.lane_lookups(L) - before_final[L],
                                graph_->max_degree(),
                                lane_run[L].member_count));
      out[L].certified_component = comp;
      out[L].final_members = lane_run[L].member_count;
      out[L].final_rounds = lane_run[L].rounds;
    }
    // Phase 3, bitsliced: the complement scan of diagnose_impl_on over
    // lane-membership masks. Ascending v, so per-lane fault lists come
    // out sorted exactly as the scalar path produces them.
    for (Node v = 0; v < num_nodes; ++v) {
      const std::uint64_t cand = group & ~builder_.sliced_member_mask(v);
      if (cand == 0) continue;
      std::uint64_t hit = 0;
      for (const Node w : graph_->neighbors(v)) {
        hit |= cand & builder_.sliced_member_mask(w);
        if (hit == cand) break;
      }
      for (std::uint64_t m = hit; m != 0; m &= m - 1) {
        out[std::countr_zero(m)].faults.push_back(v);
      }
    }
    for (std::uint64_t m = group; m != 0; m &= m - 1) {
      const unsigned L = static_cast<unsigned>(std::countr_zero(m));
      if (out[L].faults.size() > delta_) {
        out[L].failure_reason =
            "boundary larger than delta (" +
            std::to_string(out[L].faults.size()) + " > " +
            std::to_string(delta_) + "); the fault count exceeds the bound";
        out[L].faults.clear();
      } else {
        out[L].success = true;
      }
    }
  }

  // Flush per-lane accounting (the cohort analogue of run_impl's
  // add_lookups flush) and stamp the shared wall time.
  const double seconds = solve_timer.seconds();
  for (unsigned L = 0; L < width; ++L) {
    lanes[L]->add_lookups(sliced.lane_lookups(L));
    out[L].lookups = lanes[L]->lookups();
    out[L].diagnose_seconds = seconds;
  }
  return out;
}

}  // namespace mmdiag
