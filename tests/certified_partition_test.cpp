// Runtime calibration of partition plans (DESIGN.md §4.1/§4.2).
#include <gtest/gtest.h>

#include "core/certified_partition.hpp"
#include "graph/implicit_graph.hpp"
#include "test_util.hpp"

namespace mmdiag {
namespace {

TEST(CertifiedPartition, HypercubeQ7Certifies) {
  test::Instance inst("hypercube 7");
  const auto cp = find_certified_partition(*inst.topo, inst.graph, 7,
                                           ParentRule::kSpread, true);
  EXPECT_GE(cp.plan->num_components(), 8u);
  EXPECT_TRUE(cp.fully_validated);
  EXPECT_EQ(cp.delta, 7u);
  // Every component individually certifies.
  for (std::uint32_t c = 0; c < cp.plan->num_components(); ++c) {
    EXPECT_TRUE(component_certifies(inst.graph, *cp.plan, c, 7,
                                    ParentRule::kSpread));
  }
}

// The ablation behind DESIGN.md §4.2: under the paper's least-first rule a
// fault-free Q_4 component yields exactly 8 contributors, which cannot
// exceed delta = 8, and no coarser plan leaves 9 components — so Q_8 is
// un-certifiable under the paper's rule but fine under the spread rule.
TEST(CertifiedPartition, SpreadRuleRescuesQ8) {
  test::Instance inst("hypercube 8");
  EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph, 8,
                                        ParentRule::kLeastFirst, true),
               DiagnosisUnsupportedError);
  const auto cp = find_certified_partition(*inst.topo, inst.graph, 8,
                                           ParentRule::kSpread, true);
  EXPECT_GE(cp.plan->num_components(), 9u);
}

TEST(CertifiedPartition, FinerPlansPreferred) {
  test::Instance inst("hypercube 10");
  const auto tight = find_certified_partition(*inst.topo, inst.graph, 10,
                                              ParentRule::kSpread, true);
  const auto loose = find_certified_partition(*inst.topo, inst.graph, 5,
                                              ParentRule::kSpread, true);
  // A smaller fault bound admits components no larger than a bigger bound's.
  EXPECT_LE(loose.plan->component_size(), tight.plan->component_size());
}

TEST(CertifiedPartition, CliqueComponentsNeverCertify) {
  // S_{n,2} components are cliques K_{n-1}: a Set_Builder tree in a clique
  // has exactly one internal node, so certification is impossible
  // (DESIGN.md §4.3, correcting the paper's Theorem 5 for k = 2).
  test::Instance inst("nk_star 6 2");
  EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph,
                                        inst.topo->default_fault_bound(),
                                        ParentRule::kSpread, true),
               DiagnosisUnsupportedError);
}

TEST(CertifiedPartition, ArrangementK2Unsupported) {
  test::Instance inst("arrangement 6 2");
  EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph,
                                        inst.topo->default_fault_bound(),
                                        ParentRule::kSpread, true),
               DiagnosisUnsupportedError);
}

TEST(CertifiedPartition, ErrorMessageExplainsRejections) {
  test::Instance inst("nk_star 6 2");
  try {
    (void)find_certified_partition(*inst.topo, inst.graph, 5,
                                   ParentRule::kSpread, true);
    FAIL() << "expected DiagnosisUnsupportedError";
  } catch (const DiagnosisUnsupportedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("S(6,2)"), std::string::npos);
    EXPECT_NE(what.find("fault bound 5"), std::string::npos);
  }
}

TEST(CertifiedPartition, DeltaZeroTrivial) {
  test::Instance inst("hypercube 5");
  const auto cp = find_certified_partition(*inst.topo, inst.graph, 0,
                                           ParentRule::kSpread, true);
  EXPECT_GE(cp.plan->num_components(), 1u);
}

// The scale calibration's work, pinned: every one of hypercube 20's 32,768
// components is probed, at 79 look-ups each. A calibration that gets
// faster by checking fewer components, or by consulting fewer tests, fails
// here.
TEST(CertifiedPartition, ImplicitHypercube20ValidatesEveryComponent) {
  const auto topo = make_topology_from_spec("hypercube 20");
  const ImplicitGraph graph(*topo);
  const auto cp = find_certified_partition(*topo, graph, 20,
                                           ParentRule::kSpread, true);
  EXPECT_EQ(cp.plan->num_components(), 32768u);
  EXPECT_TRUE(cp.fully_validated);
  EXPECT_EQ(cp.calibration_lookups, 2588672u);
}

TEST(ComponentCertifies, MatchesFullSearchDecision) {
  test::Instance inst("star 5");
  const auto plans = inst.topo->partition_plans();
  ASSERT_EQ(plans.size(), 1u);
  const unsigned delta = inst.topo->default_fault_bound();
  bool all = true;
  for (std::uint32_t c = 0; c < plans[0]->num_components(); ++c) {
    all = all && component_certifies(inst.graph, *plans[0], c, delta,
                                     ParentRule::kSpread);
  }
  if (all) {
    EXPECT_NO_THROW((void)find_certified_partition(*inst.topo, inst.graph, delta,
                                             ParentRule::kSpread, true));
  } else {
    EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph, delta,
                                          ParentRule::kSpread, true),
                 DiagnosisUnsupportedError);
  }
}

}  // namespace
}  // namespace mmdiag
