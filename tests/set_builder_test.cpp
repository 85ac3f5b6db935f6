// Set_Builder (§4.1) unit and property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/set_builder.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

TEST(SetBuilder, FaultFreeRunCoversGraphAndCertifies) {
  test::Instance inst("hypercube 5");
  const FaultFreeOracle oracle(inst.graph);
  SetBuilder builder(inst.graph, ParentRule::kLeastFirst);
  const auto res = builder.run(oracle, 0, 5);
  EXPECT_TRUE(res.all_healthy);
  EXPECT_EQ(res.members.size(), 32u);
  EXPECT_EQ(res.members[0], 0u);
  EXPECT_EQ(res.parent[0], kNoNode);
  for (Node v = 0; v < 32; ++v) EXPECT_TRUE(builder.in_last_set(v));
}

// The closed form behind DESIGN.md §4.1: under the paper's least-parent
// rule, the fault-free Set_Builder tree on Q_m rooted at 0 has exactly
// 2^{m-1} internal nodes (a weight-w node contributes iff its top set bit
// is not m-1).
TEST(SetBuilder, LeastRuleContributorsOnHypercubeClosedForm) {
  for (unsigned m = 3; m <= 7; ++m) {
    test::Instance inst("hypercube " + std::to_string(m));
    const FaultFreeOracle oracle(inst.graph);
    SetBuilder builder(inst.graph, ParentRule::kLeastFirst);
    const auto res = builder.run(oracle, 0, /*delta=*/1u << m);  // no certify
    EXPECT_EQ(res.contributors, 1u << (m - 1)) << "m=" << m;
    EXPECT_EQ(res.rounds, m) << "m=" << m;  // BFS layers of Q_m
  }
}

TEST(SetBuilder, SpreadRuleBeatsLeastRuleOnQ4) {
  test::Instance inst("hypercube 4");
  const FaultFreeOracle oracle(inst.graph);
  SetBuilder least(inst.graph, ParentRule::kLeastFirst);
  SetBuilder spread(inst.graph, ParentRule::kSpread);
  const auto rl = least.run(oracle, 0, 100);
  const auto rs = spread.run(oracle, 0, 100);
  EXPECT_EQ(rl.contributors, 8u);
  EXPECT_GE(rs.contributors, 9u);  // rescues certification for delta = 8
  EXPECT_EQ(rs.members.size(), rl.members.size());  // same U, different tree
}

TEST(SetBuilder, MembershipIsRuleIndependent) {
  // U_r is the 0-test reachability closure, so all four parent rules grow
  // the same member set (only the trees differ).
  test::Instance inst("crossed_cube 7");
  Rng rng(55);
  const FaultSet faults(128, inject_uniform(128, 7, rng));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 4);
  std::vector<Node> reference;
  for (const auto rule : {ParentRule::kLeastFirst, ParentRule::kSpread,
                          ParentRule::kLeastSync, ParentRule::kHashSpread}) {
    SetBuilder builder(inst.graph, rule);
    Node seed = 0;
    while (faults.is_faulty(seed)) ++seed;
    auto members = builder.run(oracle, seed, 7).members;
    std::sort(members.begin(), members.end());
    if (reference.empty()) {
      reference = members;
    } else {
      EXPECT_EQ(members, reference) << to_string(rule);
    }
  }
}

TEST(SetBuilder, ParentStructureIsAValidLayeredTree) {
  test::Instance inst("crossed_cube 5");
  const FaultFreeOracle oracle(inst.graph);
  for (const auto rule : {ParentRule::kLeastFirst, ParentRule::kSpread}) {
    SetBuilder builder(inst.graph, rule);
    const auto res = builder.run(oracle, 3, 5);
    ASSERT_EQ(res.members.size(), res.parent.size());
    StampSet seen(inst.graph.num_nodes());
    std::size_t distinct_parents = 0;
    StampSet parents(inst.graph.num_nodes());
    for (std::size_t i = 0; i < res.members.size(); ++i) {
      if (i == 0) {
        EXPECT_EQ(res.parent[0], kNoNode);
      } else {
        // Parent discovered before child, and adjacent to it.
        EXPECT_TRUE(seen.contains(res.parent[i]));
        EXPECT_TRUE(inst.graph.has_edge(res.members[i], res.parent[i]));
        if (parents.insert(res.parent[i])) ++distinct_parents;
      }
      seen.insert(res.members[i]);
    }
    EXPECT_EQ(res.contributors, distinct_parents) << to_string(rule);
  }
}

TEST(SetBuilder, RestrictedRunStaysInComponentAndCoversIt) {
  test::Instance inst("hypercube 6");
  const FaultFreeOracle oracle(inst.graph);
  const PrefixBitsPlan plan(6, 4);  // 4 components of 16 nodes
  SetBuilder builder(inst.graph, ParentRule::kSpread);
  for (std::uint32_t c = 0; c < 4; ++c) {
    const auto res = builder.run_restricted(oracle, plan.seed_of(c), 6, plan, c);
    EXPECT_EQ(res.members.size(), 16u);
    for (const Node v : res.members) EXPECT_EQ(plan.component_of(v), c);
  }
}

TEST(SetBuilder, SeedOutsideComponentThrows) {
  test::Instance inst("hypercube 5");
  const FaultFreeOracle oracle(inst.graph);
  const PrefixBitsPlan plan(5, 3);
  SetBuilder builder(inst.graph);
  EXPECT_THROW((void)builder.run_restricted(oracle, 0, 5, plan, 1),
               std::invalid_argument);
  EXPECT_THROW((void)builder.run(oracle, 9999, 5), std::invalid_argument);
}

// Core soundness induction of §4.1: if u0 is healthy then every member is.
TEST(SetBuilder, HealthySeedYieldsOnlyHealthyMembers) {
  test::Instance inst("hypercube 7");
  Rng rng(123);
  SetBuilder builder(inst.graph, ParentRule::kSpread);
  for (int trial = 0; trial < 20; ++trial) {
    const FaultSet faults(inst.graph.num_nodes(),
                          inject_uniform(inst.graph.num_nodes(), 7, rng));
    for (const auto behavior : kAllFaultyBehaviors) {
      const LazyOracle oracle(inst.graph, faults, behavior, trial);
      // Pick a healthy seed.
      Node seed = 0;
      while (faults.is_faulty(seed)) ++seed;
      const auto res = builder.run(oracle, seed, 7);
      for (const Node v : res.members) {
        EXPECT_FALSE(faults.is_faulty(v))
            << "behavior " << to_string(behavior) << " trial " << trial;
      }
    }
  }
}

// Certificate soundness: whenever all_healthy fires — from ANY seed, even a
// faulty one, under ANY faulty-tester behaviour — the members really are all
// healthy, provided |F| <= delta.
TEST(SetBuilder, CertificateIsSoundFromArbitrarySeeds) {
  test::Instance inst("hypercube 7");
  const unsigned delta = 7;
  Rng rng(321);
  for (const auto rule : {ParentRule::kLeastFirst, ParentRule::kSpread,
                          ParentRule::kLeastSync, ParentRule::kHashSpread}) {
    SetBuilder builder(inst.graph, rule);
    for (int trial = 0; trial < 15; ++trial) {
      const FaultSet faults(inst.graph.num_nodes(),
                            inject_uniform(inst.graph.num_nodes(), delta, rng));
      for (const auto behavior : kAllFaultyBehaviors) {
        const LazyOracle oracle(inst.graph, faults, behavior, trial * 7);
        const Node seed = static_cast<Node>(rng.below(inst.graph.num_nodes()));
        const auto res = builder.run(oracle, seed, delta);
        if (res.all_healthy) {
          for (const Node v : res.members) {
            EXPECT_FALSE(faults.is_faulty(v)) << to_string(behavior);
          }
        }
      }
    }
  }
}

// §4.2: if the run terminates uncertified, the number of growth rounds is
// bounded by the contributor count, hence by delta.
TEST(SetBuilder, UncertifiedRunsHaveFewRounds) {
  test::Instance inst("hypercube 7");
  const unsigned delta = 7;
  Rng rng(99);
  SetBuilder builder(inst.graph, ParentRule::kLeastFirst);
  for (int trial = 0; trial < 30; ++trial) {
    const FaultSet faults(inst.graph.num_nodes(),
                          inject_uniform(inst.graph.num_nodes(), delta, rng));
    const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, trial);
    const Node seed = static_cast<Node>(rng.below(inst.graph.num_nodes()));
    const auto res = builder.run(oracle, seed, delta);
    if (!res.all_healthy) {
      EXPECT_LE(res.rounds, delta);
      EXPECT_LE(res.contributors, delta);
    }
  }
}

// §6 look-up bound: at most Δ(Δ-1)/2 results from the root and Δ-1 from
// every other member.
TEST(SetBuilder, LookupBoundFromSection6) {
  test::Instance inst("hypercube 8");
  Rng rng(7);
  const unsigned delta = 8;
  for (const auto rule : {ParentRule::kLeastFirst, ParentRule::kSpread,
                          ParentRule::kLeastSync, ParentRule::kHashSpread}) {
    SetBuilder builder(inst.graph, rule);
    for (int trial = 0; trial < 10; ++trial) {
      const FaultSet faults(inst.graph.num_nodes(),
                            inject_uniform(inst.graph.num_nodes(), delta, rng));
      const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, trial);
      const auto res = builder.run(oracle, 0, delta);
      const std::uint64_t max_deg = inst.graph.max_degree();
      const std::uint64_t bound =
          max_deg * (max_deg - 1) / 2 + (res.members.size() - 1) * (max_deg - 1);
      EXPECT_LE(oracle.lookups(), bound) << to_string(rule);
    }
  }
}

TEST(SetBuilder, StopOnCertifyStopsEarlyButSoundly) {
  test::Instance inst("hypercube 8");
  const FaultFreeOracle oracle(inst.graph);
  SetBuilder eager(inst.graph, ParentRule::kSpread);
  SetBuilder full(inst.graph, ParentRule::kSpread);
  eager.set_stop_on_certify(true);
  const auto re = eager.run(oracle, 0, 8);
  const auto rf = full.run(oracle, 0, 8);
  EXPECT_TRUE(re.all_healthy);
  EXPECT_TRUE(rf.all_healthy);
  EXPECT_LE(re.members.size(), rf.members.size());
  EXPECT_EQ(rf.members.size(), inst.graph.num_nodes());
}

TEST(SetBuilder, IsolatedHealthySeedProducesSingleton) {
  // Surround a node by faults: no test can admit anyone into U.
  test::Instance inst("hypercube 5");
  const FaultSet faults(32, inject_surround(inst.graph, 0));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 1);
  SetBuilder builder(inst.graph);
  const auto res = builder.run(oracle, 0, 5);
  EXPECT_EQ(res.members.size(), 1u);
  EXPECT_EQ(res.rounds, 0u);
  EXPECT_FALSE(res.all_healthy);
}

// Answers like `inner` but throws on its `throw_at`-th look-up, abandoning
// the run that asked partway through.
class ThrowingOracle final : public SyndromeOracle {
 public:
  ThrowingOracle(const SyndromeOracle& inner, std::uint64_t throw_at)
      : inner_(&inner), throw_at_(throw_at) {}

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned i, unsigned j) const override {
    if (lookups() == throw_at_) throw std::runtime_error("oracle failed");
    return inner_->test(u, i, j);
  }

 private:
  const SyndromeOracle* inner_;
  std::uint64_t throw_at_;
};

// One builder serves every component of a plan in turn: ascending, then
// descending, then again after each run abandoned by a throwing oracle.
// Each run must equal a fresh builder's, look-ups included, so no scratch
// (dirty bitsets, frontier bitmaps and the words a restricted round scans,
// recorded parent positions) leaks from one run into the next.
template <class GV>
void check_reuse_matches_fresh(const GV& view, const SyndromeOracle& oracle,
                               const PartitionPlan& plan, unsigned delta,
                               ParentRule rule) {
  SetBuilder reused(view, rule);
  const auto k = static_cast<std::uint32_t>(plan.num_components());
  std::vector<std::uint64_t> lookups_of(k, 0);
  auto check = [&](std::uint32_t c) {
    SCOPED_TRACE("component " + std::to_string(c));
    const Node seed = plan.seed_of(c);
    oracle.reset_lookups();
    const auto got = reused.run_restricted(oracle, seed, delta, plan, c);
    lookups_of[c] = oracle.lookups();
    SetBuilder fresh(view, rule);
    oracle.reset_lookups();
    const auto want = fresh.run_restricted(oracle, seed, delta, plan, c);
    EXPECT_EQ(got.members, want.members);
    EXPECT_EQ(got.parent, want.parent);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.contributors, want.contributors);
    EXPECT_EQ(got.all_healthy, want.all_healthy);
    EXPECT_EQ(lookups_of[c], oracle.lookups());
  };
  for (std::uint32_t c = 0; c < k; ++c) check(c);
  for (std::uint32_t c = k; c-- > 0;) check(c);

  // Abandon each component's run in turn on its 8th look-up (its last where
  // it takes fewer), which can leave admitted-but-unconsumed frontier bits
  // behind, and run every component again after each.
  for (std::uint32_t t = 0; t < k; ++t) {
    if (lookups_of[t] == 0) continue;
    SCOPED_TRACE("abandoned component " + std::to_string(t));
    const std::uint64_t throw_at = std::min<std::uint64_t>(8, lookups_of[t]);
    const ThrowingOracle thrower(oracle, throw_at);
    EXPECT_THROW(
        (void)reused.run_restricted(thrower, plan.seed_of(t), delta, plan, t),
        std::runtime_error);
    EXPECT_EQ(thrower.lookups(), throw_at);
    for (std::uint32_t c = 0; c < k; ++c) check(c);
  }
}

TEST(SetBuilder, ReusedBuilderMatchesFreshAcrossComponentsAndAbandonedRun) {
  // PrefixBitsPlan (on both views of the hypercube), TuplePrefixPlan, and
  // FixLastSymbolPlan, whose components are not contiguous id ranges.
  for (const char* spec :
       {"hypercube 7", "kary_ncube 4 3", "star 5", "pancake 5"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    const std::size_t n = inst.graph.num_nodes();
    const unsigned delta = inst.topo->default_fault_bound();
    Rng rng(2024);
    const FaultSet faults(n, inject_uniform(n, delta, rng));
    const LazyOracle csr_oracle(inst.graph, faults, FaultyBehavior::kRandom, 3);
    std::optional<ImplicitGraph> implicit;
    std::optional<ImplicitLazyOracle> implicit_oracle;
    if (ImplicitGraph::supports(*inst.topo)) {
      implicit.emplace(*inst.topo);
      implicit_oracle.emplace(*implicit, faults, FaultyBehavior::kRandom, 3);
    }
    const auto plans = inst.topo->partition_plans();
    ASSERT_FALSE(plans.empty());
    for (const auto& plan : plans) {
      SCOPED_TRACE(plan->description());
      for (const auto rule : {ParentRule::kLeastFirst, ParentRule::kSpread,
                              ParentRule::kLeastSync,
                              ParentRule::kHashSpread}) {
        SCOPED_TRACE(to_string(rule));
        check_reuse_matches_fresh(inst.graph, csr_oracle, *plan, delta, rule);
        if (implicit) {
          check_reuse_matches_fresh(*implicit, *implicit_oracle, *plan, delta,
                                    rule);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mmdiag
