// Churn suite: TopologyOverlay delta semantics and error contracts, the
// tentpole incremental-vs-cold equivalence (certification state and full
// diagnoses bit-identical — outcomes, faults, failure strings AND counted
// look-ups — across families, remove/repair sequences and both oracle
// kinds), syndrome-delta cache reuse, per-component degraded answers, the
// stream format round-trip, a 300-stream generated fuzz sweep through the
// differential harness, and churn racing in-flight batch solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "churn/churn_engine.hpp"
#include "churn/churn_stream.hpp"
#include "churn/harness.hpp"
#include "churn/topology_overlay.hpp"
#include "core/diagnoser.hpp"
#include "engine/engine.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

/// Certifiable (spec, delta) pairs spanning three structurally different
/// families (binary cube, star/permutation, torus) — the floor the issue
/// sets for the equivalence sweeps.
struct FamilyCase {
  const char* spec;
  unsigned delta;
};
constexpr FamilyCase kChurnFamilies[] = {
    {"hypercube 5", 3},
    {"star 4", 3},
    {"kary_ncube 2 6", 3},
    {"pancake 4", 3},
};

ChurnEngineOptions options_for(const FamilyCase& family) {
  ChurnEngineOptions options;
  options.delta = family.delta;
  return options;
}

// ---- TopologyOverlay semantics --------------------------------------------

TEST(TopologyOverlay, RejectsInvalidDeltasWithStateUnchanged) {
  test::Instance inst("hypercube 4");
  TopologyOverlay overlay(inst.graph);
  const std::size_t n = inst.graph.num_nodes();

  overlay.remove_node(5);
  EXPECT_EQ(overlay.live_count(), n - 1);
  // Double-remove: rejected, not absorbed.
  EXPECT_THROW(overlay.remove_node(5), std::invalid_argument);
  EXPECT_EQ(overlay.live_count(), n - 1);
  // Repair of a live node.
  EXPECT_THROW(overlay.repair_node(7), std::invalid_argument);
  // Out-of-range ids on every operation.
  EXPECT_THROW(overlay.remove_node(static_cast<Node>(n)),
               std::invalid_argument);
  EXPECT_THROW(overlay.repair_node(static_cast<Node>(n)),
               std::invalid_argument);
  EXPECT_THROW(overlay.remove_edge(0, static_cast<Node>(n)),
               std::invalid_argument);
  // Non-adjacent pair (0 and 3 differ in two bits on a hypercube).
  EXPECT_THROW(overlay.remove_edge(0, 3), std::invalid_argument);
  // Double edge removal and repair of a never-removed edge.
  overlay.remove_edge(0, 1);
  EXPECT_THROW(overlay.remove_edge(1, 0), std::invalid_argument);
  EXPECT_THROW(overlay.repair_edge(0, 2), std::invalid_argument);
  EXPECT_EQ(overlay.removed_edge_count(), 1u);
  EXPECT_TRUE(overlay.ever_churned());
}

TEST(TopologyOverlay, ExplicitEdgeRemovalSurvivesNodeRepair) {
  test::Instance inst("hypercube 4");
  TopologyOverlay overlay(inst.graph);

  overlay.remove_edge(0, 1);
  overlay.remove_node(0);
  overlay.repair_node(0);
  // The node repair resurrects every incident edge except the explicitly
  // removed one.
  EXPECT_TRUE(overlay.edge_removed(0, 1));
  EXPECT_NE(overlay.dead_mask(0), 0u);
  EXPECT_NE(overlay.dead_mask(1), 0u);
  overlay.repair_edge(1, 0);
  EXPECT_EQ(overlay.dead_mask(0), 0u);
  EXPECT_EQ(overlay.dead_mask(1), 0u);
  EXPECT_EQ(overlay.removed_edge_count(), 0u);
}

TEST(TopologyOverlay, RemoveNodeKillsTheMirrorPositions) {
  test::Instance inst("hypercube 4");
  TopologyOverlay overlay(inst.graph);
  overlay.remove_node(6);
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    if (u == 6) continue;
    const auto neighbors = inst.graph.neighbors(u);
    for (std::size_t p = 0; p < neighbors.size(); ++p) {
      const bool dead = (overlay.dead_mask(u) >> p) & 1;
      EXPECT_EQ(dead, neighbors[p] == 6) << "u=" << u << " p=" << p;
    }
  }
  overlay.repair_node(6);
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    EXPECT_EQ(overlay.dead_mask(u), 0u) << "u=" << u;
  }
}

// ---- Pristine equivalence with the base driver ----------------------------

TEST(ChurnEngine, PristineOverlayMatchesBaseDiagnoser) {
  for (const FamilyCase& family : kChurnFamilies) {
    SCOPED_TRACE(family.spec);
    DiagnosisEngine engine;
    ChurnEngine churn(engine, family.spec, options_for(family));
    for (const ComponentChurnState& state : churn.certification()) {
      EXPECT_EQ(state.status, ComponentCertStatus::kCertified);
    }

    test::Instance inst(family.spec);
    DiagnoserOptions direct_options;
    direct_options.delta = family.delta;
    Diagnoser direct(*inst.topo, inst.graph, direct_options);
    const std::size_t n = inst.graph.num_nodes();
    for (std::size_t i = 0; i <= family.delta; ++i) {
      Rng rng(911 + i);
      const FaultSet faults(n, inject_uniform(n, i, rng));
      const LazyOracle base_oracle(inst.graph, faults, FaultyBehavior::kRandom,
                                   i);
      const LazyOracle churn_oracle(churn.calibration().graph, faults,
                                    FaultyBehavior::kRandom, i);
      const DiagnosisResult expected = direct.diagnose(base_oracle);
      const ChurnDiagnosis got = churn.diagnose(churn_oracle);
      ASSERT_TRUE(expected.success);
      EXPECT_TRUE(got.success) << got.failure_reason;
      EXPECT_EQ(got.faults, test::sorted(expected.faults)) << "i=" << i;
      for (const ComponentDiagnosis& cd : got.components) {
        EXPECT_TRUE(cd.outcome == ComponentOutcome::kHealthy ||
                    cd.outcome == ComponentOutcome::kResolved);
      }
    }
  }
}

// ---- Incremental recertification vs cold ----------------------------------

/// Applies `steps` random legal deltas, checking after every one that the
/// incrementally maintained certification equals a cold recertification of
/// every component, element for element (look-up counts included).
void run_cert_equivalence(const FamilyCase& family, std::uint64_t seed,
                          std::size_t steps) {
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const Graph& graph = churn.calibration().graph;
  const std::size_t n = graph.num_nodes();
  Rng rng(seed);
  std::vector<Node> removed;
  std::vector<std::pair<Node, Node>> removed_edges;

  for (std::size_t step = 0; step < steps; ++step) {
    const std::uint64_t roll = rng.below(100);
    ChurnDelta delta;
    if (roll < 40 || (removed.empty() && removed_edges.empty())) {
      // Remove a random live node (keep at least a quarter alive).
      if (churn.overlay().live_count() * 4 < n) continue;
      Node u = static_cast<Node>(rng.below(n));
      while (churn.overlay().node_removed(u)) {
        u = static_cast<Node>(rng.below(n));
      }
      delta = {ChurnOp::kRemoveNode, u, 0};
      removed.push_back(u);
    } else if (roll < 60 && !removed.empty()) {
      const std::size_t i = rng.below(removed.size());
      delta = {ChurnOp::kRepairNode, removed[i], 0};
      removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 80 || removed_edges.empty()) {
      // Remove a random not-yet-removed edge.
      const Node u = static_cast<Node>(rng.below(n));
      const auto neighbors = graph.neighbors(u);
      const Node v = neighbors[rng.below(neighbors.size())];
      if (churn.overlay().edge_removed(u, v)) continue;
      delta = {ChurnOp::kRemoveEdge, u, v};
      removed_edges.emplace_back(u, v);
    } else {
      const std::size_t i = rng.below(removed_edges.size());
      delta = {ChurnOp::kRepairEdge, removed_edges[i].first,
               removed_edges[i].second};
      removed_edges.erase(removed_edges.begin() +
                          static_cast<std::ptrdiff_t>(i));
    }
    churn.apply(delta);
    const std::vector<ComponentChurnState> warm = churn.certification();
    const std::vector<ComponentChurnState> cold = churn.recertify_cold();
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t c = 0; c < warm.size(); ++c) {
      ASSERT_EQ(warm[c], cold[c])
          << "step " << step << " component " << c << " (warm "
          << to_string(warm[c].status) << " lookups " << warm[c].lookups
          << " vs cold " << to_string(cold[c].status) << " lookups "
          << cold[c].lookups << ")";
    }
  }
  // The incremental path must have done strictly less recertification work
  // than one cold pass per delta would have.
  EXPECT_LT(churn.components_recertified(),
            static_cast<std::uint64_t>(steps) * churn.num_components() + 1);
}

TEST(ChurnRecertifier, IncrementalMatchesColdAcrossFamilies) {
  for (const FamilyCase& family : kChurnFamilies) {
    SCOPED_TRACE(family.spec);
    run_cert_equivalence(family, 0xC0A7, 24);
  }
}

// ---- Warm vs cold diagnosis under churn (both oracle kinds) ---------------

/// Interleaves deltas with diagnoses and checks every warm answer against
/// diagnose_cold through identical() — the full bit-identity contract.
void run_diagnose_equivalence(const FamilyCase& family, bool use_table,
                              std::uint64_t seed) {
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const Graph& graph = churn.calibration().graph;
  const std::size_t n = graph.num_nodes();
  Rng rng(seed);
  const std::uint64_t behavior_seed = mix64(seed, 0xD1A6ull);

  for (std::size_t step = 0; step < 12; ++step) {
    if (churn.overlay().live_count() * 2 > n) {
      Node u = static_cast<Node>(rng.below(n));
      while (churn.overlay().node_removed(u)) {
        u = static_cast<Node>(rng.below(n));
      }
      churn.apply({ChurnOp::kRemoveNode, u, 0});
    }
    const std::size_t k = rng.below(family.delta + 1);
    const FaultSet faults(n, inject_uniform(n, k, rng));
    std::unique_ptr<Syndrome> table;
    std::unique_ptr<SyndromeOracle> oracle;
    if (use_table) {
      table = std::make_unique<Syndrome>(generate_syndrome(
          graph, faults, FaultyBehavior::kRandom, behavior_seed));
      oracle = std::make_unique<TableOracle>(graph, *table);
    } else {
      oracle = std::make_unique<LazyOracle>(
          graph, faults, FaultyBehavior::kRandom, behavior_seed);
    }
    const ChurnDiagnosis warm = churn.diagnose(*oracle);
    const ChurnDiagnosis cold = churn.diagnose_cold(*oracle);
    ASSERT_TRUE(identical(warm, cold))
        << family.spec << " step " << step << ": warm faults "
        << warm.faults.size() << " success " << warm.success
        << " vs cold faults " << cold.faults.size() << " success "
        << cold.success;
  }
}

TEST(ChurnEngine, WarmDiagnosisMatchesColdLazyOracle) {
  for (const FamilyCase& family : kChurnFamilies) {
    SCOPED_TRACE(family.spec);
    run_diagnose_equivalence(family, /*use_table=*/false, 0xBEE5);
  }
}

TEST(ChurnEngine, WarmDiagnosisMatchesColdTableOracle) {
  for (const FamilyCase& family : kChurnFamilies) {
    SCOPED_TRACE(family.spec);
    run_diagnose_equivalence(family, /*use_table=*/true, 0xFACE);
  }
}

// ---- Syndrome-delta cache reuse -------------------------------------------

TEST(ChurnEngine, DiagnoseDeltaServesUnchangedRowsFromCache) {
  const FamilyCase family = kChurnFamilies[0];
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const Graph& graph = churn.calibration().graph;
  const std::size_t n = graph.num_nodes();
  // Faults inside component 0 — the first probe target — so its probe runs
  // (and fails to certify), making the reprobe path below observable.
  const FaultSet faults(n, {1, 6});
  const LazyOracle oracle(graph, faults, FaultyBehavior::kRandom, 3);

  const ChurnDiagnosis first = churn.diagnose(oracle);
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.faults.size(), 2u);

  // No rows changed: pure cache hit, zero look-ups, identical answer.
  const ChurnDiagnosis unchanged = churn.diagnose_delta(oracle, {});
  EXPECT_TRUE(unchanged.reused_cache);
  EXPECT_EQ(unchanged.spent_lookups, 0u);
  EXPECT_EQ(unchanged.components_reprobed, 0u);
  EXPECT_TRUE(identical(unchanged, churn.diagnose_cold(oracle)));

  // A fault's own row "changed": faults are never run members, so the
  // owning component is re-probed, the probe replays, and the cached solve
  // is served.
  const ChurnDiagnosis fault_row = churn.diagnose_delta(oracle, {first.faults[0]});
  EXPECT_TRUE(fault_row.reused_cache);
  EXPECT_EQ(fault_row.components_reprobed, 1u);
  EXPECT_GT(fault_row.spent_lookups, 0u);
  EXPECT_TRUE(identical(fault_row, churn.diagnose_cold(oracle)));

  // A run member's row changed: the cached global phase is stale by
  // definition, so a full fresh solve runs.
  Node member = kNoNode;
  for (Node u = 0; u < n; ++u) {
    if (std::find(first.faults.begin(), first.faults.end(), u) ==
        first.faults.end()) {
      member = u;
      break;
    }
  }
  ASSERT_NE(member, kNoNode);
  const ChurnDiagnosis rerun = churn.diagnose_delta(oracle, {member});
  EXPECT_FALSE(rerun.reused_cache);
  EXPECT_TRUE(identical(rerun, churn.diagnose_cold(oracle)));

  // Out-of-range changed node: rejected before any state is touched.
  EXPECT_THROW((void)churn.diagnose_delta(oracle, {static_cast<Node>(n)}),
               std::invalid_argument);

  // Explicit invalidation and topology deltas both drop the cache.
  churn.invalidate_solve_cache();
  EXPECT_FALSE(churn.diagnose_delta(oracle, {}).reused_cache);
  churn.apply({ChurnOp::kRemoveNode, first.faults[0], 0});
  EXPECT_FALSE(churn.diagnose_delta(oracle, {}).reused_cache);
}

TEST(ChurnEngine, DiagnoseDeltaTracksAFaultFlipBitIdentically) {
  const FamilyCase family = kChurnFamilies[2];  // kary_ncube 2 6
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const Graph& graph = churn.calibration().graph;
  const std::size_t n = graph.num_nodes();
  const std::uint64_t behavior_seed = 5;

  const FaultSet before_faults(n, {3});
  const LazyOracle before(graph, before_faults, FaultyBehavior::kRandom,
                          behavior_seed);
  (void)churn.diagnose(before);

  // Flip node 9 faulty: its row and its neighbours' rows may change.
  const FaultSet after_faults(n, {3, 9});
  const LazyOracle after(graph, after_faults, FaultyBehavior::kRandom,
                         behavior_seed);
  std::vector<Node> changed = {9};
  for (const Node w : graph.neighbors(9)) changed.push_back(w);
  const ChurnDiagnosis warm = churn.diagnose_delta(after, changed);
  const ChurnDiagnosis cold = churn.diagnose_cold(after);
  EXPECT_TRUE(identical(warm, cold));
  EXPECT_EQ(warm.faults, (std::vector<Node>{3, 9}));
}

// ---- Degraded-mode answers ------------------------------------------------

std::vector<Node> members_of_component(const Calibration& cal,
                                       std::uint32_t comp) {
  std::vector<Node> members;
  for (Node u = 0; u < cal.graph.num_nodes(); ++u) {
    if (cal.partition.plan->component_of(u) == comp) members.push_back(u);
  }
  return members;
}

TEST(ChurnEngine, EmptyComponentAnswersQuiescentWhileOthersServe) {
  const FamilyCase family = kChurnFamilies[0];
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const std::size_t n = churn.calibration().graph.num_nodes();

  for (const Node u : members_of_component(churn.calibration(), 0)) {
    churn.apply({ChurnOp::kRemoveNode, u, 0});
  }
  EXPECT_EQ(churn.certification()[0].status, ComponentCertStatus::kEmpty);

  const FaultSet no_faults(n, {});
  const LazyOracle oracle(churn.calibration().graph, no_faults,
                          FaultyBehavior::kRandom, 1);
  const ChurnDiagnosis d = churn.diagnose(oracle);
  EXPECT_TRUE(d.success) << d.failure_reason;
  EXPECT_EQ(d.components[0].outcome, ComponentOutcome::kEmpty);
  for (std::size_t c = 1; c < d.components.size(); ++c) {
    EXPECT_EQ(d.components[c].outcome, ComponentOutcome::kHealthy);
  }
  EXPECT_TRUE(identical(d, churn.diagnose_cold(oracle)));
}

TEST(ChurnEngine, AllNodesRemovedIsTheQuiescentAnswer) {
  const FamilyCase family = kChurnFamilies[1];  // star 4: 24 nodes
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const std::size_t n = churn.calibration().graph.num_nodes();
  for (Node u = 0; u < n; ++u) churn.apply({ChurnOp::kRemoveNode, u, 0});
  EXPECT_EQ(churn.overlay().live_count(), 0u);

  const FaultSet no_faults(n, {});
  const LazyOracle oracle(churn.calibration().graph, no_faults,
                          FaultyBehavior::kRandom, 1);
  const ChurnDiagnosis d = churn.diagnose(oracle);
  EXPECT_TRUE(d.success);
  EXPECT_TRUE(d.runs.empty());
  EXPECT_TRUE(d.faults.empty());
  for (const ComponentDiagnosis& cd : d.components) {
    EXPECT_EQ(cd.outcome, ComponentOutcome::kEmpty);
  }
}

TEST(ChurnEngine, DegradedComponentReportedWithoutFailingHealthyOnes) {
  const FamilyCase family = kChurnFamilies[0];
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const Graph& graph = churn.calibration().graph;
  const std::size_t n = graph.num_nodes();

  // Strip component 0 down to one live node, then cut that node's surviving
  // edges: the component keeps a live member but loses its certificate, and
  // the member is unreachable by any run.
  const std::vector<Node> members = members_of_component(churn.calibration(), 0);
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    churn.apply({ChurnOp::kRemoveNode, members[i], 0});
  }
  const Node survivor = members.back();
  for (const Node w : graph.neighbors(survivor)) {
    if (!churn.overlay().node_removed(w) &&
        !churn.overlay().edge_removed(survivor, w)) {
      churn.apply({ChurnOp::kRemoveEdge, survivor, w});
    }
  }
  const ComponentChurnState state0 = churn.certification()[0];
  EXPECT_EQ(state0.status, ComponentCertStatus::kDegraded);
  EXPECT_EQ(state0.live_nodes, 1u);

  const FaultSet no_faults(n, {});
  const LazyOracle oracle(graph, no_faults, FaultyBehavior::kRandom, 1);
  const ChurnDiagnosis d = churn.diagnose(oracle);
  EXPECT_FALSE(d.success);
  EXPECT_EQ(d.components[0].outcome, ComponentOutcome::kDegradedUncertified);
  EXPECT_NE(d.components[0].detail.find("certificate lost"), std::string::npos)
      << d.components[0].detail;
  for (std::size_t c = 1; c < d.components.size(); ++c) {
    EXPECT_EQ(d.components[c].outcome, ComponentOutcome::kHealthy)
        << "component " << c;
  }
  EXPECT_TRUE(identical(d, churn.diagnose_cold(oracle)));
}

// ---- Stream format --------------------------------------------------------

TEST(ChurnStream, FormatParseRoundTrips) {
  ChurnStream stream;
  stream.spec = "hypercube 5";
  stream.delta = 3;
  stream.seed = 42;
  stream.events.push_back(
      {ChurnEvent::Kind::kTopology, {ChurnOp::kRemoveNode, 12, 0}, false, {}});
  stream.events.push_back(
      {ChurnEvent::Kind::kTopology, {ChurnOp::kRemoveNode, 12, 0}, true, {}});
  stream.events.push_back(
      {ChurnEvent::Kind::kTopology, {ChurnOp::kRemoveEdge, 3, 7}, false, {}});
  stream.events.push_back(
      {ChurnEvent::Kind::kTopology, {ChurnOp::kRepairEdge, 3, 7}, false, {}});
  stream.events.push_back(
      {ChurnEvent::Kind::kDiagnose, {}, false, {3, 19}});
  stream.events.push_back(
      {ChurnEvent::Kind::kDiagnoseDelta, {}, false, {3, 19, 20}});

  const std::string text = format_churn_stream(stream);
  const ChurnStream parsed = parse_churn_stream(text);
  EXPECT_EQ(parsed.spec, stream.spec);
  EXPECT_EQ(parsed.delta, stream.delta);
  EXPECT_EQ(parsed.seed, stream.seed);
  ASSERT_EQ(parsed.events.size(), stream.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, stream.events[i].kind) << i;
    EXPECT_EQ(parsed.events[i].expect_error, stream.events[i].expect_error);
    EXPECT_EQ(parsed.events[i].delta.op, stream.events[i].delta.op) << i;
    EXPECT_EQ(parsed.events[i].delta.u, stream.events[i].delta.u) << i;
    EXPECT_EQ(parsed.events[i].delta.v, stream.events[i].delta.v) << i;
    EXPECT_EQ(parsed.events[i].faults, stream.events[i].faults) << i;
  }
  EXPECT_EQ(format_churn_stream(parsed), text);
}

TEST(ChurnStream, ParseRejectsMalformedInputWithLineNumbers) {
  const auto expect_parse_error = [](const std::string& text,
                                     const std::string& needle) {
    try {
      (void)parse_churn_stream(text);
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_parse_error("bogus v9\nend\n", "line 1");
  expect_parse_error("mmdiag-churn v1\nend\n", "spec");
  expect_parse_error(
      "mmdiag-churn v1\nspec hypercube 5\nremove-node\nend\n", "line 3");
  expect_parse_error(
      "mmdiag-churn v1\nspec hypercube 5\nteleport-node 3\nend\n", "line 3");
  expect_parse_error("mmdiag-churn v1\nspec hypercube 5\nremove-node 3\n",
                     "end");
}

// ---- Generated streams through the differential harness -------------------

TEST(ChurnHarness, GeneratedHostileStreamsRunCleanBothOracleKinds) {
  DiagnosisEngine engine;
  for (const FamilyCase& family : kChurnFamilies) {
    for (const bool table : {false, true}) {
      SCOPED_TRACE(std::string(family.spec) + (table ? "/table" : "/lazy"));
      ChurnStreamConfig config;
      config.spec = family.spec;
      config.delta = family.delta;
      config.seed = 7;
      config.events = 24;
      const ChurnStream stream = generate_churn_stream(engine, config);
      ChurnHarnessOptions options;
      options.use_table_oracle = table;
      const ChurnHarnessReport report =
          run_churn_stream(engine, stream, options);
      EXPECT_TRUE(report.ok()) << report.divergences.front();
      EXPECT_GT(report.topology_events, 0u);
      EXPECT_GT(report.diagnose_events + report.delta_events, 0u);
      EXPECT_GT(report.expected_errors, 0u);  // hostile ops were generated
      EXPECT_LT(report.warm_recert_components, report.cold_recert_components);
    }
  }
}

TEST(ChurnHarness, ThreeHundredGeneratedStreamsClean) {
  // The churn fuzz floor: 300 generated streams (hostile patterns included)
  // replayed differentially, every event checked warm-vs-cold.
  DiagnosisEngine engine;
  std::size_t expected_errors = 0;
  std::size_t degraded = 0;
  std::size_t reuses = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const FamilyCase& family = kChurnFamilies[seed % std::size(kChurnFamilies)];
    ChurnStreamConfig config;
    config.spec = family.spec;
    config.delta = family.delta;
    config.seed = seed;
    config.events = 10;
    const ChurnStream stream = generate_churn_stream(engine, config);
    const ChurnHarnessReport report = run_churn_stream(engine, stream);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << " (" << family.spec
        << "): " << report.divergences.front();
    expected_errors += report.expected_errors;
    degraded += report.degraded_components_seen;
    reuses += report.cache_reuses;
  }
  // The sweep must actually exercise the hostile and degraded paths.
  EXPECT_GT(expected_errors, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(reuses, 0u);
}

// ---- Churn racing in-flight solves ----------------------------------------

TEST(ChurnEngine, ChurnRacesInFlightBatchSolvesWithoutDisturbingThem) {
  const FamilyCase family = kChurnFamilies[0];
  EngineOptions engine_options;
  engine_options.diagnoser.delta = family.delta;
  DiagnosisEngine engine(engine_options);
  ChurnEngine churn(engine, family.spec, options_for(family));
  const Graph& graph = churn.calibration().graph;
  const std::size_t n = graph.num_nodes();

  Rng rng(0xACE);
  const FaultSet faults(n, inject_uniform(n, family.delta, rng));
  const auto make_oracle = [&] {
    return LazyOracle(graph, faults, FaultyBehavior::kRandom, 7);
  };
  const LazyOracle baseline_oracle = make_oracle();
  const DiagnosisResult baseline =
      engine.serve({{family.spec, &baseline_oracle, nullptr, kNoNode}})[0];

  // Thread A hammers the immutable base calibration through serve() calls;
  // thread B churns the overlay and diagnoses through it. The base results
  // must stay bit-identical throughout — churn is an overlay, never a
  // mutation of shared state.
  std::vector<std::string> batch_errors;
  std::thread solver([&] {
    for (int i = 0; i < 16; ++i) {
      const LazyOracle o0 = make_oracle();
      const LazyOracle o1 = make_oracle();
      const std::vector<DiagnosisResult> served =
          engine.serve({{family.spec, &o0, nullptr, kNoNode},
                        {family.spec, &o1, nullptr, kNoNode}});
      for (const DiagnosisResult& result : served) {
        if (result.success != baseline.success ||
            result.faults != baseline.faults ||
            result.lookups != baseline.lookups) {
          batch_errors.push_back("batch result diverged during churn");
        }
      }
    }
  });
  for (int i = 0; i < 16; ++i) {
    churn.apply({ChurnOp::kRemoveNode, static_cast<Node>(i), 0});
    const LazyOracle oracle = make_oracle();
    (void)churn.diagnose(oracle);
    churn.apply({ChurnOp::kRepairNode, static_cast<Node>(i), 0});
  }
  solver.join();
  EXPECT_TRUE(batch_errors.empty()) << batch_errors.front();
  // After the race the incremental state still equals cold.
  EXPECT_TRUE(churn.certification() == churn.recertify_cold());
}

TEST(ChurnEngine, EveryEntryRejectsAnOracleOverAnotherGraph) {
  // Oracles over hypercube 8 sent to a ChurnEngine on hypercube 10, on a
  // CSR and on an implicit calibration: each entry must throw before it
  // solves or touches the solve cache, so a matched read that follows
  // still reuses the cache and a matched diagnose still equals
  // diagnose_cold.
  const test::Instance q8("hypercube 8");
  const ImplicitGraph q8_view(*q8.topo);
  const FaultSet q8_faults(q8.graph.num_nodes(), {5});
  const LazyOracle csr_stray(q8.graph, q8_faults, FaultyBehavior::kRandom, 1);
  const ImplicitLazyOracle implicit_stray(q8_view, q8_faults,
                                          FaultyBehavior::kRandom, 1);
  const test::Instance q10("hypercube 10");
  const FaultSet faults(q10.graph.num_nodes(), {3, 77});
  const LazyOracle matched(q10.graph, faults, FaultyBehavior::kRandom, 2);

  for (const GraphMode mode : {GraphMode::kCsr, GraphMode::kImplicit}) {
    SCOPED_TRACE(mode == GraphMode::kCsr ? "csr" : "implicit");
    EngineOptions engine_options;
    engine_options.graph_mode = mode;
    DiagnosisEngine engine(engine_options);
    ChurnEngine churn(engine, "hypercube 10");
    ASSERT_EQ(churn.calibration().is_implicit(), mode == GraphMode::kImplicit);
    const ChurnDiagnosis first = churn.diagnose(matched);
    ASSERT_TRUE(first.success) << first.failure_reason;

    for (const SyndromeOracle* stray :
         {static_cast<const SyndromeOracle*>(&csr_stray),
          static_cast<const SyndromeOracle*>(&implicit_stray)}) {
      EXPECT_THROW((void)churn.diagnose(*stray), std::invalid_argument);
      EXPECT_THROW((void)churn.diagnose_delta(*stray, {}),
                   std::invalid_argument);
      EXPECT_THROW((void)churn.diagnose_cold(*stray), std::invalid_argument);
      EXPECT_EQ(stray->lookups(), 0u);
    }

    const ChurnDiagnosis reused = churn.diagnose_delta(matched, {});
    EXPECT_TRUE(reused.reused_cache);
    EXPECT_TRUE(identical(reused, first));
    const ChurnDiagnosis warm = churn.diagnose(matched);
    const ChurnDiagnosis cold = churn.diagnose_cold(matched);
    EXPECT_TRUE(identical(warm, cold));
    EXPECT_EQ(warm.faults, (std::vector<Node>{3, 77}));
    EXPECT_EQ(warm.spent_lookups, cold.spent_lookups);
  }
}

TEST(ChurnEngine, ImplicitCalibrationChurnsOnItsOwnCsr) {
  // A kImplicit engine calibrates hypercube 10 on the closed-form view; the
  // ChurnEngine over it builds the CSR itself, so the harness replays a
  // hostile stream clean with either oracle kind, and a ChurnEngine over a
  // CSR calibration gives the same answers at the same cost.
  EngineOptions implicit_options;
  implicit_options.graph_mode = GraphMode::kImplicit;
  DiagnosisEngine implicit_engine(implicit_options);
  EngineOptions csr_options;
  csr_options.graph_mode = GraphMode::kCsr;
  DiagnosisEngine csr_engine(csr_options);

  ChurnStreamConfig config;
  config.spec = "hypercube 10";
  config.seed = 11;
  config.events = 24;
  const ChurnStream stream = generate_churn_stream(implicit_engine, config);
  for (const bool table : {false, true}) {
    SCOPED_TRACE(table ? "table" : "lazy");
    ChurnHarnessOptions options;
    options.use_table_oracle = table;
    const ChurnHarnessReport report =
        run_churn_stream(implicit_engine, stream, options);
    EXPECT_TRUE(report.ok()) << report.divergences.front();
    EXPECT_GT(report.diagnose_events + report.delta_events, 0u);
    EXPECT_GT(report.expected_errors, 0u);
  }

  ChurnEngine on_implicit(implicit_engine, "hypercube 10");
  ChurnEngine on_csr(csr_engine, "hypercube 10");
  ASSERT_TRUE(on_implicit.calibration().is_implicit());
  ASSERT_FALSE(on_csr.calibration().is_implicit());
  const Graph& graph = on_csr.graph();
  ASSERT_EQ(on_implicit.graph().num_nodes(), graph.num_nodes());
  const FaultSet before(graph.num_nodes(), {3, 77, 500});
  const FaultSet after(graph.num_nodes(), {3, 77, 501});
  const LazyOracle first(graph, before, FaultyBehavior::kRandom, 5);
  const LazyOracle second(graph, after, FaultyBehavior::kRandom, 5);
  std::vector<Node> changed = {500, 501};
  for (const Node u : {Node{500}, Node{501}}) {
    for (const Node w : graph.neighbors(u)) changed.push_back(w);
  }

  const auto expect_same = [](const ChurnDiagnosis& a,
                              const ChurnDiagnosis& b) {
    EXPECT_TRUE(identical(a, b));
    EXPECT_EQ(a.spent_lookups, b.spent_lookups);
    EXPECT_EQ(a.reused_cache, b.reused_cache);
  };
  for (ChurnEngine* churn : {&on_implicit, &on_csr}) {
    churn->apply({ChurnOp::kRemoveNode, 40, 0});
    churn->apply({ChurnOp::kRemoveEdge, 100, 101});
  }
  expect_same(on_implicit.diagnose(first), on_csr.diagnose(first));
  expect_same(on_implicit.diagnose_delta(second, changed),
              on_csr.diagnose_delta(second, changed));
  expect_same(on_implicit.diagnose_delta(second, {}),
              on_csr.diagnose_delta(second, {}));
  for (ChurnEngine* churn : {&on_implicit, &on_csr}) {
    churn->apply({ChurnOp::kRepairNode, 40, 0});
  }
  const ChurnDiagnosis healed = on_implicit.diagnose(second);
  EXPECT_TRUE(healed.success) << healed.failure_reason;
  EXPECT_EQ(healed.faults, (std::vector<Node>{3, 77, 501}));
  expect_same(healed, on_csr.diagnose(second));
  EXPECT_TRUE(on_implicit.certification() == on_csr.certification());
}

TEST(ChurnEngine, RetireCalibrationEvictsExplicitlyAndKeepsServing) {
  const FamilyCase family = kChurnFamilies[0];
  DiagnosisEngine engine;
  ChurnEngine churn(engine, family.spec, options_for(family));
  const std::size_t dropped = churn.retire_calibration();
  EXPECT_GE(dropped, 1u);
  EXPECT_GE(engine.counters().evictions_explicit, dropped);
  // The ChurnEngine shares ownership: diagnosis keeps working.
  const std::size_t n = churn.calibration().graph.num_nodes();
  const FaultSet no_faults(n, {});
  const LazyOracle oracle(churn.calibration().graph, no_faults,
                          FaultyBehavior::kRandom, 2);
  EXPECT_TRUE(churn.diagnose(oracle).success);
}

}  // namespace
}  // namespace mmdiag
