// ImplicitGraph equivalence suite: the closed-form adjacency view must
// answer every GraphView query — degree, the sorted neighbour list,
// neighbor(u, p), neighbor_position (including misses), and
// mirror_position(u, p, v) from the held neighbour v —
// exactly like the materialised CSR graph, for every registry family.
// The CSR invariant (neighbours sorted ascending) is what makes the two
// views interchangeable bit for bit in the solver: position p means the
// same edge in both worlds, so they consult identical syndrome bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "graph/implicit_graph.hpp"
#include "test_util.hpp"
#include "topology/hypercube.hpp"
#include "topology/kary_ncube.hpp"

namespace mmdiag {
namespace {

TEST(ImplicitGraph, MatchesCsrOnEveryFamily) {
  for (const char* spec : test::kEveryFamilySpec) {
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
      // Non-neighbours (u itself is never adjacent to itself in these
      // families) must come back as -1 from both views.
      EXPECT_EQ(implicit.neighbor_position(u, u), -1) << "u=" << u;
      EXPECT_EQ(csr.neighbor_position(u, u), -1) << "u=" << u;
    }
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

// No registry family reaches degree > 64 inside the 32-bit id space, so the
// ceiling is exercised with a synthetic complete graph K_66 (degree 65).
class CompleteTopology final : public Topology {
 public:
  explicit CompleteTopology(unsigned n) : n_(n) {}
  [[nodiscard]] TopologyInfo info() const override {
    TopologyInfo t;
    t.name = std::string(1, 'K').append(std::to_string(n_));
    t.family = "complete";
    t.num_nodes = n_;
    t.degree = n_ - 1;
    return t;
  }
  void neighbors(Node u, std::vector<Node>& out) const override {
    out.clear();
    for (Node v = 0; v < n_; ++v) {
      if (v != u) out.push_back(v);
    }
  }
  [[nodiscard]] std::string node_label(Node u) const override {
    return std::to_string(u);
  }
  [[nodiscard]] std::vector<std::shared_ptr<const PartitionPlan>>
  partition_plans() const override {
    return {};
  }
  [[nodiscard]] std::vector<unsigned> params() const override { return {n_}; }

 private:
  unsigned n_;
};

TEST(ImplicitGraph, RejectsTopologiesBeyondTheDegreeCeiling) {
  static_assert(ImplicitGraph::kMaxDegree == 64);
  const CompleteTopology ok(65);   // degree 64: exactly at the ceiling
  const CompleteTopology bad(66);  // degree 65: one past it
  EXPECT_NO_THROW((void)ImplicitGraph(ok));
  EXPECT_THROW((void)ImplicitGraph(bad), std::invalid_argument);
}

TEST(ImplicitGraph, GenericFallbacksMatchCsrOnAnUnregisteredFamily) {
  // The complete graph has no closed forms, so every query runs through the
  // Topology enumerate-and-sort fallbacks — checked against its CSR.
  const CompleteTopology topo(12);
  const Graph csr = topo.build_graph();
  const ImplicitGraph implicit(topo);
  for (Node u = 0; u < csr.num_nodes(); ++u) {
    const auto expected = csr.neighbors(u);
    const auto adj = implicit.neighbors(u);
    ASSERT_EQ(adj.size(), expected.size());
    for (unsigned p = 0; p < expected.size(); ++p) {
      EXPECT_EQ(adj[p], expected[p]);
      EXPECT_EQ(implicit.mirror_position(u, p, expected[p]),
                csr.mirror_position(u, p));
    }
  }
}

// A directed 3-cycle: 0 -> 1 -> 2 -> 0, so no node is in its neighbour's
// adjacency. The implicit view builds no CSR, hence no symmetry check; its
// mirror query must refuse the edge rather than return a position of -1.
class DirectedCycleTopology final : public Topology {
 public:
  [[nodiscard]] TopologyInfo info() const override {
    TopologyInfo t;
    t.name = "C3";
    t.family = "directed_cycle";
    t.num_nodes = 3;
    t.degree = 1;
    return t;
  }
  void neighbors(Node u, std::vector<Node>& out) const override {
    out.assign(1, (u + 1) % 3);
  }
  [[nodiscard]] std::string node_label(Node u) const override {
    return std::to_string(u);
  }
  [[nodiscard]] std::vector<std::shared_ptr<const PartitionPlan>>
  partition_plans() const override {
    return {};
  }
  [[nodiscard]] std::vector<unsigned> params() const override { return {}; }
};

TEST(ImplicitGraph, MirrorQueryRejectsAnAsymmetricTopology) {
  const DirectedCycleTopology topo;
  const ImplicitGraph implicit(topo);
  ASSERT_EQ(implicit.neighbor(0, 0), 1u);
  EXPECT_THROW((void)implicit.mirror_position(0, 0, 1), std::logic_error);
}

// Direct closed-form spot checks, independent of the CSR cross-check above:
// the hypercube's static API on hand-computed expectations.
TEST(ImplicitGraph, HypercubeStaticFormulas) {
  // u = 2 = 0b0010 in Q4: ascending neighbours are 0 (flip bit 1, down),
  // 3 (flip bit 0, up), 6 (flip bit 2, up), 10 (flip bit 3, up).
  Node adj[64];
  ASSERT_EQ(Hypercube::sorted_neighbors_of(4, 2, adj), 4u);
  EXPECT_EQ(adj[0], 0u);
  EXPECT_EQ(adj[1], 3u);
  EXPECT_EQ(adj[2], 6u);
  EXPECT_EQ(adj[3], 10u);
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_EQ(Hypercube::neighbor_of(4, 2, p), adj[p]) << "p=" << p;
    EXPECT_EQ(Hypercube::position_of(4, 2, adj[p]), static_cast<int>(p));
  }
  EXPECT_EQ(Hypercube::position_of(4, 2, 7), -1);  // not a neighbour
}

TEST(ImplicitGraph, KAryNCubeStaticFormulas) {
  // k=4, n=2, u = 6 = (1,2) in (dim1,dim0): neighbours are (1,1)=5,
  // (1,3)=7, (0,2)=2, (2,2)=10 — sorted: 2, 5, 7, 10.
  Node adj[64];
  ASSERT_EQ(KAryNCube::sorted_neighbors_of(2, 4, 6, adj), 4u);
  EXPECT_EQ(adj[0], 2u);
  EXPECT_EQ(adj[1], 5u);
  EXPECT_EQ(adj[2], 7u);
  EXPECT_EQ(adj[3], 10u);
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_EQ(KAryNCube::neighbor_of(2, 4, 6, p), adj[p]) << "p=" << p;
    EXPECT_EQ(KAryNCube::position_of(2, 4, 6, adj[p]), static_cast<int>(p));
  }
  EXPECT_EQ(KAryNCube::position_of(2, 4, 6, 0), -1);
}

TEST(ImplicitGraph, BothViewsSatisfyTheConcept) {
  static_assert(GraphView<Graph>);
  static_assert(GraphView<ImplicitGraph>);
  SUCCEED();
}

}  // namespace
}  // namespace mmdiag
