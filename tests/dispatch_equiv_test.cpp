// Dispatch-equivalence regression suite. Every accounted field the scalar
// driver reports — faults, failure strings, probes, rounds, members,
// contributors AND look-up counts — is pinned per registry family across
// all four parent rules and all three shipped oracles, and the bitsliced
// cohort and implicit-view routes must reproduce the scalar driver bit for
// bit. Any divergence here is a correctness bug in a hot path, not a
// measurement artefact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "core/set_builder.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

/// One certifiable (spec, delta) pair per registry family — the explicit
/// deltas keep small instances inside their §5 validity window.
struct FamilyCase {
  const char* spec;
  unsigned delta;
};
constexpr FamilyCase kEveryFamily[] = {
    {"hypercube 5", 3},          {"crossed_cube 5", 3},
    {"twisted_cube 5", 3},       {"folded_hypercube 5", 3},
    {"enhanced_hypercube 5 2", 3}, {"augmented_cube 6", 3},
    {"shuffle_cube 6", 3},       {"twisted_n_cube 5", 3},
    {"kary_ncube 2 6", 3},       {"augmented_kary_ncube 3 4", 3},
    {"star 4", 3},               {"nk_star 5 3", 4},
    {"pancake 4", 3},            {"arrangement 5 3", 4},
};

void expect_bit_identical(const DiagnosisResult& expected,
                          const DiagnosisResult& actual,
                          const std::string& what) {
  ASSERT_EQ(expected.success, actual.success) << what;
  EXPECT_EQ(expected.faults, actual.faults) << what;
  EXPECT_EQ(expected.failure_reason, actual.failure_reason) << what;
  EXPECT_EQ(expected.lookups, actual.lookups) << what;
  EXPECT_EQ(expected.probes, actual.probes) << what;
  EXPECT_EQ(expected.certified_component, actual.certified_component) << what;
  EXPECT_EQ(expected.final_members, actual.final_members) << what;
  EXPECT_EQ(expected.final_rounds, actual.final_rounds) << what;
}

/// The digest of everything EveryFamilyEveryRuleEveryOracle accounts for
/// each family, in kEveryFamily order. Recorded when this driver, a
/// statically dispatched instantiation of it and the pre-optimisation
/// implementation all agreed on every field; a change to any result or
/// look-up count changes the digest.
constexpr std::uint64_t kPinnedDigest[] = {
    0xf5ad6f82bece8b89, 0x5fafd3a787189cc6,
    0x1483132f2b75fcf4, 0x8fa2439ff3a2e549,
    0xacd22bac63bd5fae, 0x9a1c299316875075,
    0x85be6cdcd4bd4302, 0x8e0366d977d23a55,
    0x243373d58457b745, 0x925e2c625c40fdd1,
    0x88d01e9c5df51527, 0x4ff74eaa954a6b2b,
    0x87cc257a953425e1, 0xba2a69b611beab40,
};
static_assert(std::size(kPinnedDigest) == std::size(kEveryFamily));

void fold(std::uint64_t& digest, std::uint64_t value) {
  digest = mix64(digest, value);
}

void fold(std::uint64_t& digest, const std::vector<Node>& nodes) {
  fold(digest, nodes.size());
  for (const Node v : nodes) fold(digest, v);
}

void fold(std::uint64_t& digest, const std::string& text) {
  fold(digest, text.size());
  for (const char ch : text) fold(digest, static_cast<unsigned char>(ch));
}

void fold(std::uint64_t& digest, const DiagnosisResult& r) {
  fold(digest, r.success);
  fold(digest, r.faults);
  fold(digest, r.failure_reason);
  fold(digest, r.lookups);
  fold(digest, r.probes);
  fold(digest, r.certified_component);
  fold(digest, r.final_members);
  fold(digest, r.final_rounds);
}

void fold(std::uint64_t& digest, const SetBuilderResult& r,
          std::uint64_t lookups) {
  fold(digest, r.all_healthy);
  fold(digest, r.rounds);
  fold(digest, r.contributors);
  fold(digest, r.members);
  fold(digest, r.parent);
  fold(digest, lookups);
}

/// Folds one oracle case into `digest`: the diagnosis, an unrestricted
/// SetBuilder run from component 0's seed, and restricted runs over the
/// first (up to) four components. A successful diagnosis must also keep
/// its final run within the §6 bound of (Δ-1)(Δ/2 + |U_r| - 1) look-ups,
/// checked on a replay of that run.
void fold_case(std::uint64_t& digest, Diagnoser& diagnoser,
               SetBuilder& builder, const Graph& graph,
               const SyndromeOracle& oracle, const std::string& what) {
  SCOPED_TRACE(what);
  const DiagnosisResult result = diagnoser.diagnose(oracle);
  fold(digest, result);
  const PartitionPlan& plan = *diagnoser.partition().plan;
  const unsigned delta = diagnoser.delta();
  if (result.success) {
    SetBuilder final_run(graph, diagnoser.options().final_rule);
    oracle.reset_lookups();
    const SetBuilderResult full =
        final_run.run(oracle, plan.seed_of(result.certified_component), delta);
    EXPECT_EQ(full.members.size(), result.final_members);
    EXPECT_EQ(full.rounds, result.final_rounds);
    const std::uint64_t max_deg = graph.max_degree();
    EXPECT_LE(oracle.lookups(), max_deg * (max_deg - 1) / 2 +
                                    (full.members.size() - 1) * (max_deg - 1));
  }

  oracle.reset_lookups();
  const SetBuilderResult unrestricted =
      builder.run(oracle, plan.seed_of(0), delta);
  fold(digest, unrestricted, oracle.lookups());
  const std::size_t components =
      std::min<std::size_t>(plan.num_components(), 4);
  for (std::uint32_t c = 0; c < components; ++c) {
    oracle.reset_lookups();
    const SetBuilderResult restricted =
        builder.run_restricted(oracle, plan.seed_of(c), delta, plan, c);
    fold(digest, restricted, oracle.lookups());
  }
}

TEST(DispatchEquivalence, EveryFamilyEveryRuleEveryOracle) {
  for (std::size_t f = 0; f < std::size(kEveryFamily); ++f) {
    const FamilyCase& family = kEveryFamily[f];
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    const std::size_t n = inst.graph.num_nodes();
    std::uint64_t digest = 0;
    for (const ParentRule rule : kAllParentRules) {
      fold(digest, static_cast<std::uint64_t>(rule));
      CertifiedPartition partition;
      try {
        partition = find_certified_partition(*inst.topo, inst.graph,
                                             family.delta, rule);
      } catch (const DiagnosisUnsupportedError&) {
        fold(digest, std::uint64_t{0});  // this rule cannot certify it
        continue;
      }
      fold(digest, std::uint64_t{1});
      DiagnoserOptions options;
      options.rule = rule;
      Diagnoser diagnoser(inst.graph, partition, options);
      SetBuilder builder(inst.graph, rule);
      const std::string tag =
          std::string(family.spec) + "/" + to_string(rule);

      fold_case(digest, diagnoser, builder, inst.graph,
                FaultFreeOracle(inst.graph), tag + "/fault-free");

      for (const std::size_t num_faults :
           {std::size_t{1}, std::size_t{family.delta}}) {
        for (const FaultyBehavior behavior :
             {FaultyBehavior::kRandom, FaultyBehavior::kAntiDiagnostic}) {
          Rng rng(0xD15BA7C4 ^ (num_faults * 977) ^
                  static_cast<unsigned>(rule));
          const FaultSet faults(n, inject_uniform(n, num_faults, rng));
          const std::string what = tag + "/faults=" +
                                   std::to_string(num_faults) + "/" +
                                   to_string(behavior);
          fold_case(digest, diagnoser, builder, inst.graph,
                    LazyOracle(inst.graph, faults, behavior, /*seed=*/42),
                    what + "/lazy");
          const Syndrome syndrome =
              generate_syndrome(inst.graph, faults, behavior, /*seed=*/42);
          fold_case(digest, diagnoser, builder, inst.graph,
                    TableOracle(inst.graph, syndrome), what + "/table");
        }
      }
    }
    EXPECT_EQ(digest, kPinnedDigest[f])
        << std::hex << "0x" << digest << " for " << family.spec;
  }
}

/// Deterministic per-lane workload for a cohort: fault counts cycle over
/// 0..delta, all four faulty behaviours, seeded per lane.
std::vector<Syndrome> make_cohort_syndromes(const Graph& graph, unsigned delta,
                                            std::size_t width) {
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  std::vector<Syndrome> syndromes;
  syndromes.reserve(width);
  const std::size_t n = graph.num_nodes();
  for (std::size_t lane = 0; lane < width; ++lane) {
    Rng rng(0xC0407 + lane * 0x9E3779B97F4A7C15ULL);
    const FaultSet faults(
        n, inject_uniform(n, lane % (std::size_t{delta} + 1), rng));
    syndromes.push_back(
        generate_syndrome(graph, faults, kBehaviors[lane % 4], lane));
  }
  return syndromes;
}

/// Races diagnose_cohort against a scalar solve of each lane and demands
/// bit-identity on every reported field, look-up counts included.
void check_cohort_matches_scalar(Diagnoser& diagnoser, const Graph& graph,
                                 const std::vector<Syndrome>& syndromes,
                                 const std::string& tag) {
  std::vector<TableOracle> scalar_oracles, cohort_oracles;
  scalar_oracles.reserve(syndromes.size());
  cohort_oracles.reserve(syndromes.size());
  for (const Syndrome& s : syndromes) {
    scalar_oracles.emplace_back(graph, s);
    cohort_oracles.emplace_back(graph, s);
  }
  std::vector<DiagnosisResult> expected;
  for (const TableOracle& o : scalar_oracles) {
    expected.push_back(diagnoser.diagnose(o));
  }
  std::vector<const TableOracle*> lanes;
  for (const TableOracle& o : cohort_oracles) lanes.push_back(&o);
  const std::vector<DiagnosisResult> actual = diagnoser.diagnose_cohort(lanes);
  ASSERT_EQ(actual.size(), syndromes.size()) << tag;
  for (std::size_t lane = 0; lane < syndromes.size(); ++lane) {
    expect_bit_identical(expected[lane], actual[lane],
                         tag + "/lane=" + std::to_string(lane));
    // The cohort must also charge each lane's own oracle identically.
    EXPECT_EQ(scalar_oracles[lane].lookups(), cohort_oracles[lane].lookups())
        << tag << "/lane=" << lane;
  }
}

// The tentpole contract: a bitsliced lockstep cohort reports bit-identical
// diagnoses — faults, failure strings, probes AND per-syndrome look-up
// counts — for every registry family and all four parent rules, at widths
// on both sides of the 64-lane word (1, 2, 63, 64).
TEST(DispatchEquivalence, CohortMatchesScalarEveryFamilyEveryRule) {
  for (const FamilyCase& family : kEveryFamily) {
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    for (const ParentRule rule : kAllParentRules) {
      CertifiedPartition partition;
      try {
        partition = find_certified_partition(*inst.topo, inst.graph,
                                             family.delta, rule);
      } catch (const DiagnosisUnsupportedError&) {
        continue;
      }
      DiagnoserOptions options;
      options.rule = rule;
      Diagnoser diagnoser(inst.graph, partition, options);
      const std::string tag =
          std::string(family.spec) + "/" + to_string(rule);
      for (const std::size_t width :
           {std::size_t{1}, std::size_t{2}, std::size_t{63},
            std::size_t{64}}) {
        check_cohort_matches_scalar(
            diagnoser, inst.graph,
            make_cohort_syndromes(inst.graph, family.delta, width),
            tag + "/width=" + std::to_string(width));
      }
    }
  }
}

TEST(DispatchEquivalence, CohortMatchesScalarUnderStopOnCertify) {
  test::Instance inst("hypercube 6");
  const unsigned delta = 4;
  CertifiedPartition partition = find_certified_partition(
      *inst.topo, inst.graph, delta, ParentRule::kSpread);
  DiagnoserOptions options;
  options.stop_probe_on_certify = true;
  Diagnoser diagnoser(inst.graph, partition, options);
  check_cohort_matches_scalar(diagnoser, inst.graph,
                              make_cohort_syndromes(inst.graph, delta, 64),
                              "hypercube 6/stop-on-certify");
}

TEST(DispatchEquivalence, MixedCertifiableAndUncertifiableCohort) {
  // An all-one syndrome (every comparison reports a mismatch) can never
  // certify a component: its lane must carry the verbatim no-component
  // failure string without poisoning the healthy lanes around it.
  test::Instance inst("hypercube 6");
  const unsigned delta = 4;
  CertifiedPartition partition = find_certified_partition(
      *inst.topo, inst.graph, delta, ParentRule::kSpread);
  Diagnoser diagnoser(inst.graph, partition, DiagnoserOptions{});

  std::vector<Syndrome> syndromes =
      make_cohort_syndromes(inst.graph, delta, 64);
  Syndrome all_one(inst.graph);
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    const auto deg = inst.graph.degree(u);
    for (unsigned i = 0; i + 1 < deg; ++i) {
      for (unsigned j = i + 1; j < deg; ++j) {
        all_one.set_test(u, i, j, true);
      }
    }
  }
  syndromes[5] = all_one;
  syndromes[62] = all_one;
  check_cohort_matches_scalar(diagnoser, inst.graph, syndromes,
                              "hypercube 6/mixed-uncertifiable");

  const TableOracle bad(inst.graph, all_one);
  const DiagnosisResult res = diagnoser.diagnose(bad);
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.failure_reason.find("no component certified"),
            std::string::npos)
      << res.failure_reason;
}

TEST(DispatchEquivalence, CohortRejectsBadWidthsAndNullLanes) {
  test::Instance inst("hypercube 5");
  CertifiedPartition partition = find_certified_partition(
      *inst.topo, inst.graph, 3, ParentRule::kSpread);
  Diagnoser diagnoser(inst.graph, partition, DiagnoserOptions{});

  EXPECT_THROW((void)diagnoser.diagnose_cohort({}), std::invalid_argument);

  const std::vector<Syndrome> syndromes =
      make_cohort_syndromes(inst.graph, 3, 65);
  std::vector<TableOracle> oracles;
  for (const Syndrome& s : syndromes) oracles.emplace_back(inst.graph, s);
  std::vector<const TableOracle*> too_wide;
  for (const TableOracle& o : oracles) too_wide.push_back(&o);
  EXPECT_THROW((void)diagnoser.diagnose_cohort(too_wide),
               std::invalid_argument);

  std::vector<const TableOracle*> with_null = {&oracles[0], nullptr};
  EXPECT_THROW((void)diagnoser.diagnose_cohort(with_null),
               std::invalid_argument);
}

// The implicit-view contract: a Diagnoser driven through ImplicitGraph's
// closed-form adjacency must be bit-identical — faults, failure strings,
// probes AND look-up counts — to one driven through the materialised CSR,
// for every registry family, whether the oracle itself reads the implicit
// view (ImplicitLazyOracle) or a shared syndrome table (TableOracle).
TEST(DispatchEquivalence, ImplicitViewMatchesCsrEveryFamily) {
  for (const FamilyCase& family : kEveryFamily) {
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    const std::size_t n = inst.graph.num_nodes();
    const ImplicitGraph iview(*inst.topo);

    // Both certifications must settle on the same plan with the same
    // look-up budget: calibration never materialises edges on the implicit
    // side, yet walks the identical probe sequence.
    CertifiedPartition csr_partition = find_certified_partition(
        *inst.topo, inst.graph, family.delta, ParentRule::kSpread);
    CertifiedPartition imp_partition = find_certified_partition(
        *inst.topo, iview, family.delta, ParentRule::kSpread);
    EXPECT_EQ(csr_partition.plan->description(),
              imp_partition.plan->description());
    EXPECT_EQ(csr_partition.calibration_lookups,
              imp_partition.calibration_lookups);
    EXPECT_EQ(csr_partition.delta, imp_partition.delta);

    Diagnoser csr_diagnoser(inst.graph, csr_partition, DiagnoserOptions{});
    Diagnoser imp_diagnoser(iview, imp_partition, DiagnoserOptions{});

    for (const std::size_t num_faults :
         {std::size_t{0}, std::size_t{1}, std::size_t{family.delta}}) {
      for (const FaultyBehavior behavior :
           {FaultyBehavior::kRandom, FaultyBehavior::kAntiDiagnostic}) {
        Rng rng(0x1A9C0DE ^ (num_faults * 977));
        const FaultSet faults(n, inject_uniform(n, num_faults, rng));
        const std::string what = std::string(family.spec) + "/faults=" +
                                 std::to_string(num_faults) + "/" +
                                 to_string(behavior);

        // Lazy oracles: each side consults its own view's adjacency.
        const LazyOracle lazy(inst.graph, faults, behavior, /*seed=*/42);
        const ImplicitLazyOracle ilazy(iview, faults, behavior, /*seed=*/42);
        const DiagnosisResult expected = csr_diagnoser.diagnose(lazy);
        expect_bit_identical(expected, imp_diagnoser.diagnose(ilazy),
                             what + "/lazy");
        EXPECT_EQ(lazy.lookups(), ilazy.lookups()) << what;

        // Shared TableOracle: the very same oracle object through both
        // drivers — any positional drift between the views would misread
        // the table.
        const Syndrome syndrome =
            generate_syndrome(inst.graph, faults, behavior, /*seed=*/42);
        const TableOracle table(inst.graph, syndrome);
        const DiagnosisResult t_expected = csr_diagnoser.diagnose(table);
        expect_bit_identical(t_expected, imp_diagnoser.diagnose(table),
                             what + "/table");
      }
    }
  }
}

TEST(DispatchEquivalence, ImplicitDiagnoserRejectsCsrOnlyPaths) {
  test::Instance inst("hypercube 5");
  const ImplicitGraph iview(*inst.topo);
  CertifiedPartition partition =
      find_certified_partition(*inst.topo, iview, 3, ParentRule::kSpread);
  Diagnoser diagnoser(iview, partition, DiagnoserOptions{});
  const Syndrome syndrome = generate_syndrome(
      inst.graph, FaultSet(inst.graph.num_nodes(), {}),
      FaultyBehavior::kRandom, 1);
  const TableOracle table(inst.graph, syndrome);
  std::vector<const TableOracle*> lanes = {&table};
  EXPECT_THROW((void)diagnoser.diagnose_cohort(lanes), std::logic_error);
}

// The persistent transposed-row cache: a repeated (u, pivot) transpose must
// serve the stored block (hits counted, contents bit-identical to a fresh
// gather+transpose), cached_row must answer only for current entries, the
// cache must survive reset_accounting (that is the probe→final reuse), and
// widening the cohort must invalidate it. Result/look-up identity with the
// cache active is asserted by every cohort test above — the cache changes
// which words are touched, never their content.
TEST(DispatchEquivalence, TransposedRowCacheServesIdenticalBlocks) {
  test::Instance inst("hypercube 6");
  const std::vector<Syndrome> syndromes =
      make_cohort_syndromes(inst.graph, 4, 9);
  std::vector<TableOracle> oracles;
  for (const Syndrome& s : syndromes) oracles.emplace_back(inst.graph, s);

  BitSlicedOracle sliced(inst.graph);
  for (std::size_t lane = 0; lane + 1 < oracles.size(); ++lane) {
    sliced.add_lane(oracles[lane]);
  }
  const unsigned width = sliced.width();
  const Node u = 3;
  const unsigned pivot = 1;

  EXPECT_EQ(sliced.cached_row(u, pivot), nullptr) << "cold cache";
  const std::uint64_t* first = sliced.transposed_row(u, pivot);
  EXPECT_EQ(sliced.row_cache_hits(), 0u) << "first transpose is a miss";
  std::vector<std::uint64_t> snapshot(first, first + BitSlicedOracle::kMaxLanes);
  for (unsigned p = 0; p < inst.graph.degree(u); ++p) {
    for (unsigned lane = 0; lane < width; ++lane) {
      EXPECT_EQ((snapshot[p] >> lane) & 1,
                (oracles[lane].row_bits(u, pivot) >> p) & 1)
          << "p=" << p << " lane=" << lane;
    }
  }

  const std::uint64_t* again = sliced.transposed_row(u, pivot);
  EXPECT_EQ(sliced.row_cache_hits(), 1u);
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), again));

  sliced.reset_accounting();  // probes reset charges; rows must survive
  const std::uint64_t* cached = sliced.cached_row(u, pivot);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(sliced.row_cache_hits(), 2u);
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), cached));
  EXPECT_EQ(sliced.cached_row(u, pivot + 1), nullptr) << "different pivot";

  // Widening the cohort changes what a block means: everything invalidates.
  sliced.add_lane(oracles.back());
  EXPECT_EQ(sliced.cached_row(u, pivot), nullptr) << "stale after add_lane";
}

// The word-row view must agree with the per-pair view bit for bit, and the
// mirror table must agree with the binary search it replaces.
TEST(DispatchEquivalence, WordRowsAndMirrorPositionsMatchScalarQueries) {
  for (const char* spec : {"hypercube 5", "star 5", "pancake 4"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    const std::size_t n = inst.graph.num_nodes();
    Rng rng(3);
    const FaultSet faults(n, inject_uniform(n, 3, rng));
    const Syndrome syndrome =
        generate_syndrome(inst.graph, faults, FaultyBehavior::kAllOne, 5);
    for (Node u = 0; u < n; ++u) {
      const auto adj = inst.graph.neighbors(u);
      for (unsigned i = 0; i < adj.size(); ++i) {
        const std::uint64_t row = syndrome.row_bits(u, i);
        EXPECT_FALSE((row >> i) & 1) << "diagonal bit set at u=" << u;
        for (unsigned j = 0; j < adj.size(); ++j) {
          if (i == j) continue;
          EXPECT_EQ(bool((row >> j) & 1), syndrome.test(u, i, j))
              << "u=" << u << " i=" << i << " j=" << j;
        }
        EXPECT_EQ(static_cast<int>(inst.graph.mirror_position(u, i)),
                  inst.graph.neighbor_position(adj[i], u))
            << "u=" << u << " p=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace mmdiag
