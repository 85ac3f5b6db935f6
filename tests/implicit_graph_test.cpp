// ImplicitGraph equivalence suite: the hypercube's closed-form view must
// answer every GraphView query — degree, the sorted neighbour list,
// neighbor(u, p), neighbor_position (including misses), and
// mirror_position(u, p, v) from the held neighbour v — exactly like the
// materialised CSR graph. The CSR invariant (neighbours sorted ascending)
// is what makes the two views interchangeable bit for bit in the solver:
// position p means the same edge in both worlds, so they consult identical
// syndrome bits. Every other family has no implicit view and is refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "engine/calibration.hpp"
#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "graph/implicit_graph.hpp"
#include "test_util.hpp"
#include "topology/hypercube.hpp"

namespace mmdiag {
namespace {

TEST(ImplicitGraph, MatchesCsrOnHypercubes) {
  for (const unsigned n : {1u, 2u, 3u, 5u, 8u, 16u}) {
    const std::string spec = "hypercube " + std::to_string(n);
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    const ImplicitGraph implicit(*inst.topo);
    const Graph& csr = inst.graph;

    ASSERT_EQ(implicit.num_nodes(), csr.num_nodes());
    EXPECT_EQ(implicit.max_degree(), csr.max_degree());

    for (Node u = 0; u < csr.num_nodes(); ++u) {
      const auto expected = csr.neighbors(u);
      ASSERT_EQ(implicit.degree(u), csr.degree(u)) << "u=" << u;
      const auto adj = implicit.neighbors(u);
      ASSERT_EQ(adj.size(), expected.size()) << "u=" << u;
      for (unsigned p = 0; p < expected.size(); ++p) {
        EXPECT_EQ(adj[p], expected[p]) << "u=" << u << " p=" << p;
        EXPECT_EQ(implicit.neighbor(u, p), expected[p])
            << "u=" << u << " p=" << p;
        EXPECT_EQ(implicit.neighbor_position(u, expected[p]),
                  csr.neighbor_position(u, expected[p]))
            << "u=" << u << " p=" << p;
        // The mirror comes from the held neighbour: u's place in adj(v).
        EXPECT_EQ(implicit.mirror_position(u, p, expected[p]),
                  csr.mirror_position(u, p))
            << "u=" << u << " p=" << p;
      }
      // Non-neighbours come back as -1 from both views: u itself, and the
      // node two bit flips away.
      EXPECT_EQ(implicit.neighbor_position(u, u), -1) << "u=" << u;
      EXPECT_EQ(csr.neighbor_position(u, u), -1) << "u=" << u;
      if (n >= 2) {
        EXPECT_EQ(implicit.neighbor_position(u, u ^ 3u), -1) << "u=" << u;
        EXPECT_EQ(csr.neighbor_position(u, u ^ 3u), -1) << "u=" << u;
      }
    }
  }
}

// Direct closed-form spot checks, independent of the CSR cross-check above,
// on hand-computed expectations.
TEST(ImplicitGraph, HypercubeClosedForms) {
  // u = 2 = 0b0010 in Q4: ascending neighbours are 0 (flip bit 1, down),
  // 3 (flip bit 0, up), 6 (flip bit 2, up), 10 (flip bit 3, up).
  const ImplicitGraph q4(Hypercube(4));
  const auto adj = q4.neighbors(2);
  ASSERT_EQ(adj.size(), 4u);
  EXPECT_EQ(adj[0], 0u);
  EXPECT_EQ(adj[1], 3u);
  EXPECT_EQ(adj[2], 6u);
  EXPECT_EQ(adj[3], 10u);
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_EQ(q4.neighbor(2, p), adj[p]) << "p=" << p;
    EXPECT_EQ(q4.neighbor_position(2, adj[p]), static_cast<int>(p));
  }
  EXPECT_EQ(q4.neighbor_position(2, 7), -1);   // two bits apart
  EXPECT_EQ(q4.neighbor_position(2, 18), -1);  // bit 4 lies outside Q4
}

TEST(ImplicitGraph, MirrorQueryRejectsANonNeighbour) {
  const ImplicitGraph q4(Hypercube(4));
  // adj(0) = {1, 2, 4, 8}: 2 sits at position 1.
  EXPECT_EQ(q4.mirror_position(2, 0, 0), 1u);
  // 7 = 0b0111 is two bit flips from 2: no position to return.
  EXPECT_THROW((void)q4.mirror_position(2, 0, 7), std::logic_error);
}

// Every other family solves faster on its CSR and has no implicit view:
// both constructors and an implicit calibration refuse it, naming the
// family.
TEST(ImplicitGraph, RejectsEveryFamilyButTheHypercube) {
  for (const char* spec : test::kEveryFamilySpec) {
    SCOPED_TRACE(spec);
    const std::shared_ptr<const Topology> topology =
        make_topology_from_spec(spec);
    const std::string family = topology->info().family;
    EXPECT_EQ(ImplicitGraph::supports(*topology), family == "hypercube");
    if (family == "hypercube") continue;
    try {
      (void)ImplicitGraph(*topology);
      ADD_FAILURE() << "an implicit view was built";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + family + "'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)ImplicitGraph(topology), std::invalid_argument);
    EXPECT_THROW((void)build_calibration(make_topology_from_spec(spec), 3,
                                         ParentRule::kSpread, true,
                                         GraphMode::kImplicit),
                 std::invalid_argument);
  }
}

TEST(ImplicitGraph, FootprintIsConstantAndTiny) {
  test::Instance small("hypercube 4");
  test::Instance large("hypercube 10");
  const ImplicitGraph a(*small.topo);
  const ImplicitGraph b(*large.topo);
  // O(1): the footprint must not grow with the node count, and must be
  // orders of magnitude below the CSR estimate for any non-toy instance.
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  EXPECT_LT(b.memory_bytes(), std::uint64_t{4096});
  EXPECT_LT(b.memory_bytes(), b.csr_bytes_estimate());
  EXPECT_EQ(b.csr_bytes_estimate(),
            csr_memory_bytes_estimate(large.topo->info().num_nodes,
                                      large.topo->info().degree));
}

TEST(ImplicitGraph, BothViewsSatisfyTheConcept) {
  static_assert(GraphView<Graph>);
  static_assert(GraphView<ImplicitGraph>);
  SUCCEED();
}

}  // namespace
}  // namespace mmdiag
