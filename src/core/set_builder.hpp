// Set_Builder — the core procedure of §4.1.
//
// Starting from a seed u0, grow U_1 ⊆ U_2 ⊆ ... where
//   U_1 = {u0} ∪ {v : s_{u0}(v,w) = 0 for some other neighbour w}, t(v)=u0,
//   U_i = U_{i-1} ∪ {v ∉ U_{i-1} : s_u(v, t(u)) = 0 for some frontier u},
// with t(v) the parent of v in the growth tree T. The *contributors* are the
// internal nodes of T; if any internal node is faulty then all are, so once
// more than δ distinct contributors exist the whole of U is certified
// healthy ("all_healthy").
//
// Parent rules:
//   kLeastFirst — the paper's rule: t(v) is the least frontier node (in the
//     fixed node ordering) whose test admits v; members join as soon as
//     admitted, so each edge is tested at most once.
//   kSpread — our enhancement (DESIGN.md §4.2): joins are deferred to the
//     end of the round and children are assigned so as to maximise the
//     number of distinct parents. Certificate soundness is rule-independent
//     (the faulty-internal-node propagation argument never uses leastness),
//     but kSpread certifies strictly smaller components, e.g. fault-free
//     Q_4 yields 8 internal nodes under kLeastFirst and 10 under kSpread.
//   kLeastSync — deferred joins with least-offerer parents: exactly the
//     tree a synchronous message-passing implementation grows (all offers
//     of a round race, the least sender wins). Used to calibrate partitions
//     for the distributed protocol in src/distributed.
//   kHashSpread — deferred joins, parent = the offerer minimising
//     mix64(parent, child): spreads children over distinct parents
//     statistically, needs no coordination, and is therefore implementable
//     distributed with zero extra messages. Certifies some instances
//     kLeastSync cannot (calibration decides per instance).
//
// Runs may be restricted to one component of a PartitionPlan — the
// Set_Builder(u0, H) of §5 — in which case only member nodes are touched.
//
// The hot path. run/run_restricted take any SyndromeOracle; one driver
// body, templated only on the graph view (CSR Graph or ImplicitGraph),
// serves every oracle. Structural optimisations keep the inner loop
// word-granular and allocation-free:
//
//   - Frontiers are node-indexed bitmaps consumed word-by-word; ascending
//     bit order IS the ascending node order the parent rules require, so
//     the per-round std::sort of the frontier is gone. A restricted run
//     scans only the word window its frontier spans, so a probe of a
//     component that is a contiguous id range (the prefix plans) costs
//     O(Δ·|U_r|), not O(N). The position of a member's tree parent in its
//     own adjacency list is recorded at admission (one
//     mirror_position(parent, pos, member) call per member, answered from
//     the admitted edge), so rounds >= 2 never re-search for the parent.
//   - A materialised table (TableOracle, recognised by one dynamic_cast per
//     run) serves a whole (node, pivot) syndrome row as one packed 64-bit
//     read; the consulted pairs are then register bit tests, charged in
//     bulk so the counter matches the per-pair path. Every other oracle
//     answers through the virtual endpoint test(u, i, j, v, w), handed the
//     two compared neighbours the driver already holds in adj, so a lazy
//     oracle computes each outcome without re-deriving either node.
//   - Membership bitsets pack one bit per node (DirtyBitset), keeping the
//     hot loop's working set L1-resident; restricted probes resolve
//     prefix-plan eligibility with an inline shift instead of a virtual
//     call per neighbour.
//   - All scratch is member state with cheap clears; steady-state runs
//     allocate nothing beyond the returned members/parent arrays, which
//     are reserved from component-size / previous-run bounds.
//
// Row reads and per-pair reads execute the same admission logic and charge
// the same look-ups, so members, trees, rounds, contributors AND look-up
// counts do not depend on the oracle's type (tests/dispatch_equiv_test.cpp
// pins them per family/rule/oracle).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/oracle.hpp"
#include "topology/partition.hpp"
#include "util/bitvec.hpp"
#include "util/enum_names.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace mmdiag {

// ParentRule and its name helpers live in util/enum_names.hpp, the shared
// home of the library's enum <-> string tables.

struct SetBuilderResult {
  bool all_healthy = false;      // certificate: contributors exceeded δ
  unsigned rounds = 0;           // the paper's r (U_r = U_{r+1})
  std::size_t contributors = 0;  // |C_1 ∪ ... ∪ C_r| = internal nodes of T
  std::vector<Node> members;     // U_r in discovery order; members[0] = u0
  std::vector<Node> parent;      // parent[i] = t(members[i]); root -> kNoNode
};

/// Per-lane outcome of a bitsliced cohort run (SetBuilder::run_sliced) —
/// the scalar SetBuilderResult minus the materialised member/parent
/// vectors: cohort callers read membership through sliced_member_mask,
/// which costs nothing to produce for 64 lanes at once.
struct SlicedLaneResult {
  bool all_healthy = false;
  unsigned rounds = 0;
  std::size_t contributors = 0;
  std::size_t member_count = 0;  // |U_r|, counting the seed
};

class SetBuilder {
 public:
  explicit SetBuilder(const Graph& g, ParentRule rule = ParentRule::kSpread);

  /// Implicit-adjacency builder: the same driver over a view that computes
  /// neighbours on the fly. Scratch stays O(N) bits/words; no O(E) state.
  /// The sliced paths remain CSR-only (they read packed rows by graph
  /// layout) and throw std::logic_error on this builder.
  explicit SetBuilder(const ImplicitGraph& g,
                      ParentRule rule = ParentRule::kSpread);

  /// Unrestricted run (the final phase of the §5 driver).
  SetBuilderResult run(const SyndromeOracle& oracle, Node u0, unsigned delta);

  /// Run restricted to component `comp` of `plan` — Set_Builder(u0, H).
  SetBuilderResult run_restricted(const SyndromeOracle& oracle, Node u0,
                                  unsigned delta, const PartitionPlan& plan,
                                  std::uint32_t comp);

  /// Bitsliced cohort run: executes run()'s admission logic for every lane
  /// of `oracle` named in `active` (bit L = lane L) in lockstep — one
  /// instruction stream drives up to 64 syndromes. `out` must have room
  /// for 64 entries; out[L] is written for every lane in `active`. Each
  /// lane's members, rounds, contributors and charged look-ups (through
  /// oracle.charge) are bit-identical to a scalar run over that lane
  /// alone. Requires max_degree() <= 64 (word-wide rows).
  void run_sliced(const BitSlicedOracle& oracle, Node u0, unsigned delta,
                  std::uint64_t active, SlicedLaneResult* out);

  /// run_sliced restricted to component `comp` of `plan`.
  void run_sliced_restricted(const BitSlicedOracle& oracle, Node u0,
                             unsigned delta, std::uint64_t active,
                             const PartitionPlan& plan, std::uint32_t comp,
                             SlicedLaneResult* out);

  /// Lane-membership mask of the most recent sliced run: bit L set iff v
  /// is in lane L's U_r. Valid until the next sliced run on this builder.
  [[nodiscard]] std::uint64_t sliced_member_mask(Node v) const noexcept {
    return s_member_.empty() ? 0 : s_member_[v];
  }

  /// Membership in the most recent run's U_r (valid until the next run).
  [[nodiscard]] bool in_last_set(Node v) const noexcept {
    return in_set_.contains(v);
  }

  /// If true, stop growing as soon as the certificate fires (the paper
  /// builds to the fixpoint; this is a probe-phase optimisation measured by
  /// bench_ablation). Default false = paper-faithful.
  void set_stop_on_certify(bool stop) noexcept { stop_on_certify_ = stop; }

  [[nodiscard]] ParentRule rule() const noexcept { return rule_; }

 private:
  /// A 0-test admission candidate of one deferred-join round. pos is
  /// child's position in parent's adjacency list; admission turns it into
  /// the mirror position, so candidates that lose pay nothing for it.
  struct ZeroEdge {
    Node parent;
    Node child;
    std::uint32_t pos;
  };

  /// A deferred-join candidate of one sliced round: ZeroEdge plus the mask
  /// of lanes whose 0-test offered it.
  struct SlicedEdge {
    Node parent;
    Node child;
    std::uint32_t child_parent_pos;
    std::uint64_t lanes;
  };

  template <class GV>
  SetBuilderResult run_impl(const SyndromeOracle& oracle, const GV& g, Node u0,
                            unsigned delta, const PartitionPlan* plan,
                            std::uint32_t comp);

  void run_sliced_impl(const BitSlicedOracle& oracle, Node u0, unsigned delta,
                       std::uint64_t active, const PartitionPlan* plan,
                       std::uint32_t comp, SlicedLaneResult* out);

  void require_csr(const char* what) const;

  const Graph* graph_ = nullptr;          // exactly one of graph_ /
  const ImplicitGraph* implicit_ = nullptr;  // implicit_ is non-null
  ParentRule rule_;
  bool stop_on_certify_ = false;
  bool frontier_clean_ = true;  // bitmaps all-zero (see run_impl)

  // Scratch reused across runs. Membership lives in packed bitsets (one
  // bit per node, so the hot loop's working set stays L1-resident) whose
  // clears touch only dirtied words; the frontier bitmaps are consumed
  // (zeroed) as they are read; the vectors keep their capacity.
  DirtyBitset in_set_;
  DirtyBitset is_contributor_;
  std::vector<std::uint64_t> frontier_words_[2];  // node-indexed bitmaps
  std::vector<std::uint32_t> parent_pos_of_;  // t(v)'s position in adj(v)
  std::vector<unsigned> round1_pos_;  // eligible seed-adjacency positions
  std::vector<ZeroEdge> zero_edges_;  // deferred-join round buffer
  std::size_t last_unrestricted_size_ = 0;  // reserve hint for members

  // Sliced-run scratch: per-node *lane masks* replace the scalar path's
  // per-run bitsets (bit L of s_member_[v] = v ∈ lane L's U_r, and so on),
  // plus a union node-bitmap per frontier so iteration stays word-granular.
  // Sized lazily on the first sliced run; cleared through the touched-node
  // list so resets stay O(|U_r|) like the dirty bitsets. The divergent-pos
  // side table holds the rare (node, lane) parent positions that differ
  // from the node's first-recorded one, flat-indexed (v << 6) | lane; its
  // entries need no clearing because every read is gated by the per-node
  // divergence masks, which are reset (see run_sliced_impl).
  std::vector<std::uint64_t> s_member_;
  std::vector<std::uint64_t> s_contrib_;
  std::vector<std::uint64_t> s_frontier_[2];
  std::vector<std::uint64_t> s_frontier_union_[2];  // node-indexed bitmaps
  std::vector<std::uint32_t> s_shared_pos_;
  std::vector<std::uint64_t> s_divergent_;
  std::vector<Node> s_touched_;
  std::vector<SlicedEdge> s_zero_edges_;
  std::vector<std::uint8_t> s_divergent_pos_;
};

}  // namespace mmdiag
