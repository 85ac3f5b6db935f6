// MM-model substrate: syndrome generation semantics, oracle equivalence,
// look-up counting, fault sets and faulty behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "churn/overlay_oracle.hpp"
#include "churn/topology_overlay.hpp"
#include "graph/builder.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

std::vector<Node> three_distinct_nodes(Rng& rng) {
  std::vector<Node> v;
  while (v.size() < 3) {
    const auto candidate = static_cast<Node>(rng.below(16));
    if (std::find(v.begin(), v.end(), candidate) == v.end()) {
      v.push_back(candidate);
    }
  }
  return v;
}

TEST(FaultSet, MembershipAndNormalisation) {
  const FaultSet f(10, {7, 3, 3, 5});
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.nodes(), (std::vector<Node>{3, 5, 7}));
  EXPECT_TRUE(f.is_faulty(3));
  EXPECT_FALSE(f.is_faulty(4));
  EXPECT_THROW((void)FaultSet(4, {9}), std::invalid_argument);
}

TEST(Behavior, NamesAndDeterminism) {
  for (const auto b : kAllFaultyBehaviors) {
    EXPECT_FALSE(to_string(b).empty());
  }
  // Random behaviour is a pure function of (seed, u, {v,w}).
  const bool r1 = faulty_test_result(FaultyBehavior::kRandom, 9, 1, 2, 3, false, false);
  const bool r2 = faulty_test_result(FaultyBehavior::kRandom, 9, 1, 3, 2, false, false);
  EXPECT_EQ(r1, r2);  // unordered pair
  EXPECT_FALSE(faulty_test_result(FaultyBehavior::kAllZero, 0, 1, 2, 3, true, true));
  EXPECT_TRUE(faulty_test_result(FaultyBehavior::kAllOne, 0, 1, 2, 3, false, false));
  EXPECT_TRUE(faulty_test_result(FaultyBehavior::kAntiDiagnostic, 0, 1, 2, 3,
                                 false, false));
  EXPECT_FALSE(faulty_test_result(FaultyBehavior::kAntiDiagnostic, 0, 1, 2, 3,
                                  true, false));
}

TEST(Syndrome, HealthyTestersFollowTheModel) {
  test::Instance inst("hypercube 4");
  const FaultSet faults(16, {5, 9});
  const Syndrome s =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 1);
  for (Node u = 0; u < 16; ++u) {
    if (faults.is_faulty(u)) continue;
    const auto adj = inst.graph.neighbors(u);
    for (unsigned i = 0; i + 1 < adj.size(); ++i) {
      for (unsigned j = i + 1; j < adj.size(); ++j) {
        const bool expected =
            faults.is_faulty(adj[i]) || faults.is_faulty(adj[j]);
        EXPECT_EQ(s.test(u, i, j), expected) << "u=" << u;
      }
    }
  }
}

TEST(Syndrome, FaultFreeSyndromeIsAllZero) {
  test::Instance inst("star 4");
  const FaultSet none(24, {});
  const Syndrome s =
      generate_syndrome(inst.graph, none, FaultyBehavior::kAllOne, 3);
  EXPECT_EQ(s.ones(), 0u);
}

TEST(Syndrome, TotalTestsFormula) {
  test::Instance inst("hypercube 4");  // 16 nodes, degree 4
  const Syndrome s(inst.graph);
  EXPECT_EQ(s.total_tests(), 16u * (4 * 3 / 2));
}

TEST(Syndrome, PairIndexSymmetricAccess) {
  test::Instance inst("hypercube 3");
  Syndrome s(inst.graph);
  s.set_test(0, 0, 2, true);
  EXPECT_TRUE(s.test(0, 2, 0));
  EXPECT_FALSE(s.test(0, 1, 2));
}

Graph complete_graph(std::size_t n) {
  std::vector<std::pair<Node, Node>> edges;
  for (Node u = 0; u + 1 < n; ++u) {
    for (Node v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return build_graph_from_edges(n, edges);
}

// Exhaustive row_bits-vs-test() cross-checks at the word-width boundary:
// d = 63 (rows end mid-word) and d = 64 (rows fill a word exactly, the
// len == 64 extract edge case). Every (u, pivot, position) triple is
// compared, and the diagonal slot must read zero.
void expect_rows_match_tests(const Graph& g, const Syndrome& s) {
  const unsigned d = static_cast<unsigned>(g.max_degree());
  for (Node u = 0; u < g.num_nodes(); ++u) {
    for (unsigned i = 0; i < d; ++i) {
      const std::uint64_t row = s.row_bits(u, i);
      for (unsigned j = 0; j < d; ++j) {
        const bool bit = ((row >> j) & 1u) != 0;
        if (j == i) {
          ASSERT_FALSE(bit) << "diagonal set: u=" << u << " i=" << i;
        } else {
          ASSERT_EQ(bit, s.test(u, i, j)) << "u=" << u << " i=" << i
                                          << " j=" << j;
        }
      }
    }
  }
}

TEST(Syndrome, RowBitsMatchesTestAtDegree63) {
  const Graph g = complete_graph(64);  // K_64: d = 63
  const FaultSet faults(64, {0, 17, 63});
  const Syndrome s =
      generate_syndrome(g, faults, FaultyBehavior::kRandom, 404);
  expect_rows_match_tests(g, s);
}

TEST(Syndrome, RowBitsMatchesTestAtDegree64) {
  const Graph g = complete_graph(65);  // K_65: d = 64, rows exactly one word
  const FaultSet faults(65, {2, 40, 64});
  const Syndrome s =
      generate_syndrome(g, faults, FaultyBehavior::kAntiDiagnostic, 405);
  expect_rows_match_tests(g, s);
}

TEST(Syndrome, Degree65StaysConsistentThroughPairAccess) {
  // K_66: d = 65 > 64, so row_bits is off the table (callers gate on
  // max_degree() <= 64 and fall back to per-pair test()); the pair path
  // itself must stay sound at this width.
  const Graph g = complete_graph(66);
  const FaultSet faults(66, {1, 65});
  const Syndrome s =
      generate_syndrome(g, faults, FaultyBehavior::kAllOne, 406);
  const TableOracle table(g, s);
  const LazyOracle lazy(g, faults, FaultyBehavior::kAllOne, 406);
  for (Node u = 0; u < 66; ++u) {
    const auto deg = g.degree(u);
    for (unsigned i = 0; i + 1 < deg; ++i) {
      for (unsigned j = i + 1; j < deg; ++j) {
        ASSERT_EQ(table.test(u, i, j), lazy.test(u, i, j))
            << u << " " << i << " " << j;
        ASSERT_EQ(s.test(u, i, j), s.test(u, j, i));
      }
    }
  }
}

TEST(Oracles, TableAndLazyAgreeForEveryBehavior) {
  test::Instance inst("crossed_cube 4");
  Rng rng(11);
  const FaultSet faults(16, three_distinct_nodes(rng));
  for (const auto behavior : kAllFaultyBehaviors) {
    SCOPED_TRACE(to_string(behavior));
    const Syndrome s = generate_syndrome(inst.graph, faults, behavior, 77);
    const TableOracle table(inst.graph, s);
    const LazyOracle lazy(inst.graph, faults, behavior, 77);
    for (Node u = 0; u < 16; ++u) {
      const auto deg = inst.graph.degree(u);
      for (unsigned i = 0; i + 1 < deg; ++i) {
        for (unsigned j = i + 1; j < deg; ++j) {
          EXPECT_EQ(table.test(u, i, j), lazy.test(u, i, j))
              << u << " " << i << " " << j;
        }
      }
    }
  }
}

TEST(Oracles, LookupCounting) {
  test::Instance inst("hypercube 3");
  const Syndrome s(inst.graph);
  const TableOracle oracle(inst.graph, s);
  EXPECT_EQ(oracle.lookups(), 0u);
  (void)oracle.test(0, 0, 1);
  (void)oracle.test(0, 0, 2);
  EXPECT_EQ(oracle.lookups(), 2u);
  oracle.reset_lookups();
  EXPECT_EQ(oracle.lookups(), 0u);
}

TEST(Oracles, FaultFreeOracleAlwaysZero) {
  test::Instance inst("hypercube 3");
  const FaultFreeOracle oracle(inst.graph);
  EXPECT_FALSE(oracle.test(0, 0, 1));
  EXPECT_FALSE(oracle.test(5, 1, 2));
  EXPECT_EQ(oracle.lookups(), 2u);
}

// The endpoint look-up's contract on every registry family's small
// instance: for every u and i != j, test(u, i, j, N_u[i], N_u[j]) answers
// like test(u, i, j), and each call charges exactly one look-up. Covered:
// the lazy oracle on the CSR view and, on the hypercube, on the implicit
// view, a table, the fault-free oracle, and a churn overlay over a lazy
// oracle with one removed node and one dead edge, whose masks must apply on
// the endpoint path too.
TEST(Oracles, EndpointLookupMatchesThePositionLookupOnEveryFamily) {
  for (const char* spec : test::kEveryFamilySpec) {
    SCOPED_TRACE(spec);
    const test::Instance inst(spec);
    const Graph& g = inst.graph;
    const std::size_t n = g.num_nodes();
    Rng rng(17);
    const FaultSet faults(n, inject_uniform(n, 2, rng));
    const auto behavior = FaultyBehavior::kRandom;
    const Syndrome s = generate_syndrome(g, faults, behavior, 5);
    const TableOracle table(g, s);
    const LazyOracle lazy(g, faults, behavior, 5);
    const FaultFreeOracle fault_free;

    // The removed node and the dead edge sit on healthy nodes, so their
    // masks turn some of the inner oracle's 0-tests into 1s.
    Node removed = 0;
    while (faults.is_faulty(removed)) ++removed;
    Node a = removed + 1;
    while (faults.is_faulty(a) || faults.is_faulty(g.neighbor(a, 0))) ++a;
    TopologyOverlay overlay(g);
    overlay.remove_node(removed);
    overlay.remove_edge(a, g.neighbor(a, 0));
    const LazyOracle inner(g, faults, behavior, 5);
    const OverlayOracle masked(overlay, inner);

    std::vector<std::pair<const char*, const SyndromeOracle*>> oracles = {
        {"lazy", &lazy},
        {"table", &table},
        {"fault-free", &fault_free},
        {"overlay", &masked},
    };
    std::optional<ImplicitGraph> view;
    std::optional<ImplicitLazyOracle> implicit_lazy;
    if (ImplicitGraph::supports(*inst.topo)) {
      view.emplace(*inst.topo);
      implicit_lazy.emplace(*view, faults, behavior, 5);
      oracles.emplace_back("implicit lazy", &*implicit_lazy);
    }
    for (const auto& [name, oracle] : oracles) {
      SCOPED_TRACE(name);
      std::size_t masked_ones = 0;
      for (Node u = 0; u < n; ++u) {
        const auto adj = g.neighbors(u);
        for (unsigned i = 0; i < adj.size(); ++i) {
          for (unsigned j = 0; j < adj.size(); ++j) {
            if (i == j) continue;
            const std::uint64_t before = oracle->lookups();
            const bool by_position = oracle->test(u, i, j);
            ASSERT_EQ(oracle->lookups(), before + 1);
            const bool by_endpoint = oracle->test(u, i, j, adj[i], adj[j]);
            ASSERT_EQ(oracle->lookups(), before + 2);
            ASSERT_EQ(by_endpoint, by_position)
                << "u=" << u << " i=" << i << " j=" << j;
            if (oracle == &masked && by_endpoint && !inner.test(u, i, j)) {
              ++masked_ones;
            }
          }
        }
      }
      if (oracle == &masked) {
        EXPECT_GT(masked_ones, 0u);
      }
    }
  }
}

// The cohort view's preconditions hold in every build type, not only where
// assert() is compiled in: rows wider than one word and a 65th lane throw.
TEST(Oracles, BitSlicedOracleRejectsWideRowsAndA65thLane) {
  const Graph wide = complete_graph(66);  // K_66: d = 65
  EXPECT_THROW(BitSlicedOracle{wide}, std::invalid_argument);
  const Graph word = complete_graph(65);  // K_65: d = 64, exactly one word
  EXPECT_NO_THROW(BitSlicedOracle{word});

  const Syndrome s(word);
  const TableOracle table(word, s);
  BitSlicedOracle sliced(word);
  for (unsigned lane = 0; lane < BitSlicedOracle::kMaxLanes; ++lane) {
    EXPECT_EQ(sliced.add_lane(table), lane);
  }
  EXPECT_THROW((void)sliced.add_lane(table), std::invalid_argument);
  EXPECT_EQ(sliced.width(), BitSlicedOracle::kMaxLanes);
  EXPECT_EQ(sliced.full_mask(), ~std::uint64_t{0});
}

}  // namespace
}  // namespace mmdiag
