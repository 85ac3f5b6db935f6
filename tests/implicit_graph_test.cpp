// ImplicitGraph equivalence suite: the hypercube's closed-form view must
// answer every GraphView query — degree, the sorted neighbour list,
// neighbor(u, p) and neighbor_position (including misses) — exactly like
// the materialised CSR graph. The CSR invariant (neighbours sorted ascending)
// is what makes the two views interchangeable bit for bit in the solver:
// position p means the same edge in both worlds, so they consult identical
// syndrome bits. Its word-level read (neighbor_words) must agree with its
// per-node one. Every other family has no implicit view and is refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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
TEST(ImplicitGraph, NeighborWordsReadEachDimensionOfAWord) {
  // neighbor_words must report, for every node of a word and every
  // dimension, the bitmap's bit at the node's neighbour across it — the
  // per-node answer clear_neighbor_dims gives — and OR them into its
  // return value.
  for (const unsigned n : {3u, 6u, 7u, 9u}) {
    const std::string spec = "hypercube " + std::to_string(n);
    SCOPED_TRACE(spec);
    const ImplicitGraph q{Hypercube(n)};
    const std::size_t nodes = q.num_nodes();
    std::vector<std::uint64_t> bitmap((nodes + 63) / 64, 0u);
    std::uint64_t state = 0x9E3779B97F4A7C15u;
    for (Node v = 0; v < nodes; ++v) {
      state = state * 6364136223846793005u + 1442695040888963407u;
      if ((state >> 61) == 0) bitmap[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
    std::uint64_t out[32];
    for (Node w = 0; w < bitmap.size(); ++w) {
      const std::uint64_t any = q.neighbor_words(w, bitmap, out);
      for (Node b = 0; b < 64 && (w << 6) + b < nodes; ++b) {
        const Node v = (w << 6) + b;
        const std::uint32_t clear = q.clear_neighbor_dims(v, bitmap, n);
        bool has_neighbour = false;
        for (unsigned d = 0; d < n; ++d) {
          const bool set = (out[d] >> b) & 1;
          EXPECT_EQ(set, ((clear >> d) & 1) == 0)
              << "v=" << v << " d=" << d;
          has_neighbour = has_neighbour || set;
        }
        EXPECT_EQ(has_neighbour, bool((any >> b) & 1)) << "v=" << v;
      }
    }
  }
}

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
