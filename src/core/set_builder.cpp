#include "core/set_builder.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>

namespace mmdiag {

SetBuilder::SetBuilder(const Graph& g, ParentRule rule)
    : graph_(&g), rule_(rule) {
  const std::size_t n = g.num_nodes();
  in_set_.resize(n);
  is_contributor_.resize(n);
  frontier_words_[0].assign((n + 63) / 64, 0u);
  frontier_words_[1].assign((n + 63) / 64, 0u);
  parent_pos_of_.assign(n, 0u);
}

SetBuilder::SetBuilder(const ImplicitGraph& g, ParentRule rule)
    : implicit_(&g), rule_(rule) {
  const std::size_t n = g.num_nodes();
  in_set_.resize(n);
  is_contributor_.resize(n);
  frontier_words_[0].assign((n + 63) / 64, 0u);
  frontier_words_[1].assign((n + 63) / 64, 0u);
  parent_pos_of_.assign(n, 0u);
}

void SetBuilder::require_csr(const char* what) const {
  if (graph_ == nullptr) {
    throw std::logic_error(std::string("Set_Builder: ") + what +
                           " requires a CSR graph, not an implicit view");
  }
}

// The scalar driver: one body for every oracle, instantiated once per graph
// view.
template <class GV>
SetBuilderResult SetBuilder::run_impl(const SyndromeOracle& oracle,
                                      const GV& g, Node u0, unsigned delta,
                                      const PartitionPlan* plan,
                                      std::uint32_t comp) {
  static_assert(GraphView<GV>);
  if (u0 >= g.num_nodes()) throw std::invalid_argument("Set_Builder: bad seed");
  if (plan != nullptr && plan->component_of(u0) != comp) {
    throw std::invalid_argument("Set_Builder: seed outside its component");
  }
  // Restricted probes check eligibility once per scanned neighbour; for the
  // arithmetic prefix plans (the bit-string families, including every
  // hypercube variant) one dynamic_cast per run turns that virtual call
  // into an inline shift.
  const auto* prefix_plan =
      plan != nullptr ? dynamic_cast<const PrefixBitsPlan*>(plan) : nullptr;
  const unsigned prefix_shift =
      prefix_plan != nullptr ? prefix_plan->suffix_bits() : 0;
  auto eligible = [&](Node v) {
    if (plan == nullptr) return true;
    if (prefix_plan != nullptr) return (v >> prefix_shift) == comp;
    return plan->component_of(v) == comp;
  };
  // On the hypercube view a neighbour is a dimension. A prefix plan's
  // component fixes every bit from prefix_shift up, so only the dimensions
  // below it can lead to an eligible neighbour; any other plan is checked
  // per candidate.
  [[maybe_unused]] const unsigned free_dims =
      prefix_plan != nullptr ? std::min(prefix_shift, g.max_degree())
                             : g.max_degree();
  [[maybe_unused]] const bool generic_plan =
      plan != nullptr && prefix_plan == nullptr;

  // The same idiom picks the read path from the input: a materialised
  // table is read without virtual calls, and by whole packed rows where a
  // row fits one word; every other oracle answers through the endpoint
  // test(), handed the compared nodes v = adj[i], w = adj[j] this driver
  // already holds. Counting is identical either way.
  const auto* table = dynamic_cast<const TableOracle*>(&oracle);
  const bool word_rows = table != nullptr && g.max_degree() <= 64;
  auto test = [&](Node u, unsigned i, unsigned j, Node v, Node w) {
    return table != nullptr ? table->test(u, i, j)
                            : oracle.test(u, i, j, v, w);
  };
  // Look-ups served from packed rows, flushed to the oracle's counter once
  // at the end — totals match the per-call path exactly.
  std::uint64_t row_served = 0;

  in_set_.clear();
  is_contributor_.clear();
  // The frontier bitmaps are clean by consumption on every normal exit
  // (words zero as they are read; the certify-break path scrubs below), so
  // a full fill is only owed when the previous run was abandoned mid-way —
  // an oracle that threw between admissions.
  if (!frontier_clean_) {
    std::fill(frontier_words_[0].begin(), frontier_words_[0].end(), 0u);
    std::fill(frontier_words_[1].begin(), frontier_words_[1].end(), 0u);
  }
  frontier_clean_ = false;

  SetBuilderResult result;
  const std::size_t member_hint =
      plan != nullptr ? static_cast<std::size_t>(plan->component_size())
                      : g.num_nodes();
  result.members.reserve(member_hint);
  result.parent.reserve(member_hint);
  result.members.push_back(u0);
  result.parent.push_back(kNoNode);
  in_set_.insert(u0);

  // Flips each round: `fi` indexes the frontier being filled.
  unsigned fi = 0;
  std::size_t next_count = 0;

  // `pos` is v's position in adj(parent); its mirror, parent's position in
  // adj(v), is computed here from the admitted edge, once per member.
  auto add_member = [&](Node v, Node parent, unsigned pos) {
    result.members.push_back(v);
    result.parent.push_back(parent);
    parent_pos_of_[v] = g.mirror_position(parent, pos, v);
    frontier_words_[fi][v >> 6] |= std::uint64_t{1} << (v & 63);
    ++next_count;
  };

  // ---- Round 1: U_1 from u0's pair tests. ----------------------------------
  {
    const auto adj = g.neighbors(u0);
    // Eligible neighbour positions (member scratch — no per-run allocation).
    round1_pos_.clear();
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (eligible(adj[p])) round1_pos_.push_back(p);
    }
    for (std::size_t a = 0; a < round1_pos_.size(); ++a) {
      const unsigned pa = round1_pos_[a];
      std::uint64_t row = 0;
      bool have_row = false;
      for (std::size_t b = a + 1; b < round1_pos_.size(); ++b) {
        const unsigned pb = round1_pos_[b];
        const Node va = adj[pa];
        const Node vb = adj[pb];
        // Once both endpoints are members the test adds no information.
        if (in_set_.contains(va) && in_set_.contains(vb)) continue;
        bool one;
        if (word_rows) {
          if (!have_row) {
            row = table->row_bits(u0, pa);
            have_row = true;
          }
          ++row_served;
          one = (row >> pb) & 1;
        } else {
          one = test(u0, pa, pb, va, vb);
        }
        if (!one) {
          if (in_set_.insert(va)) add_member(va, u0, pa);
          if (in_set_.insert(vb)) add_member(vb, u0, pb);
        }
      }
    }
    if (next_count > 0) {
      is_contributor_.insert(u0);
      result.contributors = 1;
      result.rounds = 1;
    }
  }

  // ---- Rounds i >= 2. -------------------------------------------------------
  while (next_count > 0) {
    if (result.contributors > delta) {
      result.all_healthy = true;
      if (stop_on_certify_) break;
    }
    // Consume the frontier just filled; admissions go to the other bitmap.
    // Word-by-word ascending bit iteration visits frontier nodes in
    // ascending id order — under kLeastFirst exactly the paper's "least
    // contributing node" parent choice, with no sort.
    std::uint64_t* const cur = frontier_words_[fi].data();
    const std::size_t frontier_count = next_count;
    // The frontier is exactly the last frontier_count members. A restricted
    // run scans only the words they span; every word outside is zero.
    std::size_t w_begin = 0;
    std::size_t w_end = frontier_words_[fi].size();
    if (plan != nullptr) {
      const auto [lo, hi] = std::minmax_element(
          result.members.end() - static_cast<std::ptrdiff_t>(frontier_count),
          result.members.end());
      w_begin = *lo >> 6;
      w_end = (*hi >> 6) + 1;
    }
    fi ^= 1;
    next_count = 0;

    const bool deferred = rule_ != ParentRule::kLeastFirst;
    if (deferred) {
      zero_edges_.clear();
      // Every frontier node offers at most degree-1 candidates; reserving
      // the bound up front means no mid-round regrowth even on the first
      // run (later runs reuse the high-water capacity anyway).
      zero_edges_.reserve(frontier_count *
                          static_cast<std::size_t>(g.max_degree()));
    }
    for (std::size_t w = w_begin; w < w_end; ++w) {
      std::uint64_t bits = cur[w];
      if (bits == 0) continue;
      cur[w] = 0;  // consumed — the bitmap is clean for the round after next
      do {
        const Node u =
            static_cast<Node>((w << 6) + std::countr_zero(bits));
        bits &= bits - 1;
        const unsigned parent_pos = parent_pos_of_[u];

        // Consult each eligible non-member neighbour against the parent
        // pivot. A table serves the whole pivot row as one read when the
        // rule defers joins — those rounds consult most positions of every
        // frontier node, so one extract amortises over many pairs. Under
        // kLeastFirst a frontier node averages ~one consult (earlier
        // parents already admitted the rest), so the per-pair read is the
        // cheaper word-free path there.
        std::uint64_t row = 0;
        bool have_row = false;
        bool contributed = false;
        auto consult = [&](unsigned p, Node v, Node parent) {
          bool one;
          if (deferred && word_rows) {
            if (!have_row) {
              row = table->row_bits(u, parent_pos);
              have_row = true;
            }
            ++row_served;
            one = (row >> p) & 1;
          } else {
            one = test(u, p, parent_pos, v, parent);
          }
          if (!one) {
            if (!deferred) {
              in_set_.insert(v);
              add_member(v, u, p);
              contributed = true;
            } else {
              zero_edges_.push_back(ZeroEdge{u, v, p});
            }
          }
        };
        if constexpr (std::is_same_v<GV, ImplicitGraph>) {
          // The non-members among u's neighbours come straight from
          // in_set_'s words, and nothing is built when there are none (the
          // parent is a member, so never a candidate). Candidates go in
          // the view's ascending order — u's set bits by descending index,
          // then its unset bits ascending — the order the CSR loop below
          // walks, so admissions match it member for member.
          const std::uint32_t cand =
              g.clear_neighbor_dims(u, in_set_.words(), free_dims);
          if (cand != 0) {
            const Node parent = g.neighbor(u, parent_pos);
            auto visit = [&](unsigned d) {
              const Node v = u ^ (Node{1} << d);
              if (generic_plan && !eligible(v)) return;
              consult(static_cast<unsigned>(g.neighbor_position(u, v)), v,
                      parent);
            };
            for (std::uint32_t m = cand & u; m != 0;) {
              const auto d = static_cast<unsigned>(31 - std::countl_zero(m));
              m ^= std::uint32_t{1} << d;
              visit(d);
            }
            for (std::uint32_t m = cand & ~u; m != 0; m &= m - 1) {
              visit(static_cast<unsigned>(std::countr_zero(m)));
            }
          }
        } else {
          const auto adj = g.neighbors(u);
          const Node parent = adj[parent_pos];
          for (unsigned p = 0; p < adj.size(); ++p) {
            const Node v = adj[p];
            if (p == parent_pos || in_set_.contains(v) || !eligible(v)) {
              continue;
            }
            consult(p, v, parent);
          }
        }
        if (!deferred && contributed && is_contributor_.insert(u)) {
          ++result.contributors;
        }
      } while (bits != 0);
    }

    if (deferred) {
      if (rule_ == ParentRule::kSpread) {
        // Pass A: one child per distinct parent, scanning parents in
        // ascending order (zero_edges_ is grouped by parent in that order).
        std::size_t i = 0;
        while (i < zero_edges_.size()) {
          const Node u = zero_edges_[i].parent;
          bool claimed = false;
          std::size_t j = i;
          for (; j < zero_edges_.size() && zero_edges_[j].parent == u; ++j) {
            const Node v = zero_edges_[j].child;
            if (!claimed && in_set_.insert(v)) {
              add_member(v, u, zero_edges_[j].pos);
              if (is_contributor_.insert(u)) ++result.contributors;
              claimed = true;
            }
          }
          i = j;
        }
      } else if (rule_ == ParentRule::kHashSpread) {
        // Order candidates so the first edge per child carries the parent
        // minimising mix64(parent, child) — the coordination-free spread a
        // distributed joiner can compute from its offers alone.
        std::sort(zero_edges_.begin(), zero_edges_.end(),
                  [](const ZeroEdge& a, const ZeroEdge& b) {
                    if (a.child != b.child) return a.child < b.child;
                    const auto ha = mix64(a.parent, a.child);
                    const auto hb = mix64(b.parent, b.child);
                    if (ha != hb) return ha < hb;
                    return a.parent < b.parent;
                  });
      }
      // Remaining candidates (all of them under kLeastSync / kHashSpread)
      // go to the first admitting parent in edge order.
      for (const ZeroEdge& e : zero_edges_) {
        if (in_set_.insert(e.child)) {
          add_member(e.child, e.parent, e.pos);
          if (is_contributor_.insert(e.parent)) ++result.contributors;
        }
      }
    }

    if (next_count > 0) ++result.rounds;
  }

  // A stop_on_certify break can leave admitted-but-unconsumed frontier bits
  // behind; scrub them so the next run starts from clean bitmaps.
  if (stop_on_certify_ && next_count > 0) {
    std::fill(frontier_words_[0].begin(), frontier_words_[0].end(), 0u);
    std::fill(frontier_words_[1].begin(), frontier_words_[1].end(), 0u);
  }

  if (result.contributors > delta) result.all_healthy = true;
  oracle.add_lookups(row_served);
  frontier_clean_ = true;
  return result;
}

SetBuilderResult SetBuilder::run(const SyndromeOracle& oracle, Node u0,
                                 unsigned delta) {
  if (implicit_ != nullptr) {
    return run_impl(oracle, *implicit_, u0, delta, nullptr, 0);
  }
  return run_impl(oracle, *graph_, u0, delta, nullptr, 0);
}

SetBuilderResult SetBuilder::run_restricted(const SyndromeOracle& oracle,
                                            Node u0, unsigned delta,
                                            const PartitionPlan& plan,
                                            std::uint32_t comp) {
  if (implicit_ != nullptr) {
    return run_impl(oracle, *implicit_, u0, delta, &plan, comp);
  }
  return run_impl(oracle, *graph_, u0, delta, &plan, comp);
}

void SetBuilder::run_sliced(const BitSlicedOracle& oracle, Node u0,
                            unsigned delta, std::uint64_t active,
                            SlicedLaneResult* out) {
  run_sliced_impl(oracle, u0, delta, active, nullptr, 0, out);
}

void SetBuilder::run_sliced_restricted(const BitSlicedOracle& oracle, Node u0,
                                       unsigned delta, std::uint64_t active,
                                       const PartitionPlan& plan,
                                       std::uint32_t comp,
                                       SlicedLaneResult* out) {
  run_sliced_impl(oracle, u0, delta, active, &plan, comp, out);
}

// The cohort kernel. One instruction stream drives every lane in `active`
// through the same rounds run_impl executes, with per-node lane masks in
// place of the scalar per-run bitsets:
//   s_member_[v]       bit L = v ∈ lane L's U_r            (in_set_)
//   s_contrib_[v]      bit L = v internal in lane L's tree (is_contributor_)
//   s_frontier_[·][v]  bit L = v in lane L's frontier      (frontier_words_)
// The union frontier bitmap iterates nodes ascending and positions are
// scanned ascending within each node, so projecting any single lane out of
// the interleaved stream reproduces exactly the scalar execution order —
// which is why members, rounds, contributors AND charged look-ups are
// bit-identical per lane (asserted by tests/dispatch_equiv_test.cpp and
// raced by the fuzzer's cohort voice).
//
// Divergence peel. All lanes admitting a node through the same parent
// position share one transposed row. Round 1 cannot diverge (every parent
// is u0 and the recorded position is the mirror of the child's own fixed
// adjacency slot); from round 2 on, a lane whose tree parent of a node
// differs from the node's first-recorded position peels off to a scalar
// per-node walk over that lane's own packed row, then rejoins the cohort
// stream. Lanes are disjoint state, so interleaving the peel with the
// shared stream never changes any lane's own order of consults.
//
// For the deferred rules the round buffer carries lane masks per candidate
// edge. kSpread's pass A keeps the scalar `claimed` flag as one bit per
// lane; kHashSpread's comparator is a strict total order over (parent,
// child) with at most one event per pair and round, so the sorted combined
// stream filtered to one lane is that lane's scalar sorted stream.
void SetBuilder::run_sliced_impl(const BitSlicedOracle& oracle, Node u0,
                                 unsigned delta, std::uint64_t active,
                                 const PartitionPlan* plan, std::uint32_t comp,
                                 SlicedLaneResult* out) {
  require_csr("run_sliced");
  const Graph& g = *graph_;
  if (u0 >= g.num_nodes()) throw std::invalid_argument("Set_Builder: bad seed");
  if (plan != nullptr && plan->component_of(u0) != comp) {
    throw std::invalid_argument("Set_Builder: seed outside its component");
  }
  if (g.max_degree() > 64) {
    throw std::invalid_argument(
        "Set_Builder: run_sliced needs word-wide rows (degree <= 64)");
  }
  if ((active & ~oracle.full_mask()) != 0) {
    throw std::invalid_argument(
        "Set_Builder: active mask names lanes the oracle does not have");
  }
  for (std::uint64_t m = active; m != 0; m &= m - 1) {
    out[std::countr_zero(m)] = SlicedLaneResult{};
  }
  if (active == 0) return;

  // Same prefix-plan devirtualisation as run_impl.
  const auto* prefix_plan =
      plan != nullptr ? dynamic_cast<const PrefixBitsPlan*>(plan) : nullptr;
  const unsigned prefix_shift =
      prefix_plan != nullptr ? prefix_plan->suffix_bits() : 0;
  auto eligible = [&](Node v) {
    if (plan == nullptr) return true;
    if (prefix_plan != nullptr) return (v >> prefix_shift) == comp;
    return plan->component_of(v) == comp;
  };

  const std::size_t n = g.num_nodes();
  if (s_member_.size() < n) {
    s_member_.assign(n, 0);
    s_contrib_.assign(n, 0);
    s_frontier_[0].assign(n, 0);
    s_frontier_[1].assign(n, 0);
    s_shared_pos_.assign(n, 0);
    s_divergent_.assign(n, 0);
    s_frontier_union_[0].assign((n + 63) / 64, 0);
    s_frontier_union_[1].assign((n + 63) / 64, 0);
    s_divergent_pos_.assign(n * 64, 0);
  }
  // Clear the previous sliced run through its touched-node list — O(|U_r|)
  // resets, like the scalar dirty bitsets. (Union-bitmap words may be
  // zeroed whole: only touched nodes ever set bits in them.)
  for (const Node v : s_touched_) {
    s_member_[v] = 0;
    s_contrib_[v] = 0;
    s_divergent_[v] = 0;
    s_frontier_[0][v] = 0;
    s_frontier_[1][v] = 0;
    s_frontier_union_[0][v >> 6] = 0;
    s_frontier_union_[1][v >> 6] = 0;
  }
  s_touched_.clear();

  unsigned fi = 0;  // frontier being filled
  std::uint64_t admitted_round = 0;

  // Per-lane contributor/member tallies live in vertical (carry-save) bit
  // planes, like the oracle's look-up counters: adding a lane mask is a
  // ripple add (~2 word ops regardless of popcount) instead of a per-set-bit
  // scalar loop. Folds happen only where a count is actually read — the
  // certify check and the final sweep.
  constexpr unsigned kPlanes = 6;
  std::array<std::uint64_t, kPlanes> contrib_planes{};
  std::array<std::uint64_t, kPlanes> member_planes{};
  auto vadd = [out](std::array<std::uint64_t, kPlanes>& planes,
                    std::size_t SlicedLaneResult::*slot,
                    std::uint64_t lanes) {
    std::uint64_t carry = lanes;
    for (auto& plane : planes) {
      const std::uint64_t t = plane & carry;
      plane ^= carry;
      carry = t;
      if (carry == 0) return;
    }
    for (; carry != 0; carry &= carry - 1) {
      out[std::countr_zero(carry)].*slot += std::uint64_t{1} << kPlanes;
    }
  };
  auto vfold = [out](std::array<std::uint64_t, kPlanes>& planes,
                     std::size_t SlicedLaneResult::*slot) {
    for (unsigned k = 0; k < kPlanes; ++k) {
      for (std::uint64_t m = planes[k]; m != 0; m &= m - 1) {
        out[std::countr_zero(m)].*slot += std::uint64_t{1} << k;
      }
      planes[k] = 0;
    }
  };

  auto credit = [&](Node u, std::uint64_t lanes) {
    const std::uint64_t newly = lanes & ~s_contrib_[u];
    if (newly == 0) return;
    s_contrib_[u] |= newly;
    vadd(contrib_planes, &SlicedLaneResult::contributors, newly);
  };

  auto admit = [&](Node v, std::uint64_t lanes, std::uint32_t parent_pos) {
    const std::uint64_t before = s_member_[v];
    if (before == 0) {
      s_touched_.push_back(v);
      s_shared_pos_[v] = parent_pos;
    } else if (s_shared_pos_[v] != parent_pos) {
      // These lanes' tree parent sits at a different slot of adj(v) than
      // the first admitter's: record the position on the side; v runs the
      // peel path for them when consumed as a frontier node.
      s_divergent_[v] |= lanes;
      for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        s_divergent_pos_[(static_cast<std::size_t>(v) << 6) |
                         static_cast<unsigned>(std::countr_zero(m))] =
            static_cast<std::uint8_t>(parent_pos);
      }
    }
    s_member_[v] = before | lanes;
    s_frontier_[fi][v] |= lanes;
    s_frontier_union_[fi][v >> 6] |= std::uint64_t{1} << (v & 63);
    admitted_round |= lanes;
    vadd(member_planes, &SlicedLaneResult::member_count, lanes);
  };

  // Seed: member of every active lane.
  s_touched_.push_back(u0);
  s_member_[u0] = active;
  vadd(member_planes, &SlicedLaneResult::member_count, active);

  const bool deferred = rule_ != ParentRule::kLeastFirst;

  // ---- Round 1: U_1 from u0's pair tests, all lanes at once. ---------------
  {
    const auto adj = g.neighbors(u0);
    const auto mirror = g.mirror_positions(u0);
    round1_pos_.clear();
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (eligible(adj[p])) round1_pos_.push_back(p);
    }
    for (std::size_t a = 0; a < round1_pos_.size(); ++a) {
      const unsigned pa = round1_pos_[a];
      const Node va = adj[pa];
      const std::uint64_t* row = nullptr;
      for (std::size_t b = a + 1; b < round1_pos_.size(); ++b) {
        const unsigned pb = round1_pos_[b];
        const Node vb = adj[pb];
        // Per lane: once both endpoints are members the test adds no
        // information (run_impl's skip, as a mask).
        const std::uint64_t consult =
            active & ~(s_member_[va] & s_member_[vb]);
        if (consult == 0) continue;
        if (row == nullptr) row = oracle.transposed_row(u0, pa);
        oracle.charge(consult);
        const std::uint64_t zero = consult & ~row[pb];
        if (zero == 0) continue;
        // Round-1 parents are always u0; no divergence is possible here.
        const std::uint64_t adm_a = zero & ~s_member_[va];
        if (adm_a != 0) admit(va, adm_a, mirror[pa]);
        const std::uint64_t adm_b = zero & ~s_member_[vb];
        if (adm_b != 0) admit(vb, adm_b, mirror[pb]);
      }
    }
    if (admitted_round != 0) {
      credit(u0, admitted_round);
      for (std::uint64_t m = admitted_round; m != 0; m &= m - 1) {
        out[std::countr_zero(m)].rounds = 1;
      }
    }
  }

  // ---- Rounds i >= 2. -------------------------------------------------------
  std::uint64_t prev_admitted = admitted_round;
  std::uint64_t stopped = 0;
  while (true) {
    // Top-of-round certificate check, as in run_impl. all_healthy itself
    // is settled by the post-loop sweep; the mask only drives early stop.
    if (stop_on_certify_) {
      vfold(contrib_planes, &SlicedLaneResult::contributors);
      for (std::uint64_t m = prev_admitted & ~stopped; m != 0; m &= m - 1) {
        const unsigned L = static_cast<unsigned>(std::countr_zero(m));
        if (out[L].contributors > delta) stopped |= std::uint64_t{1} << L;
      }
    }
    const std::uint64_t looping = prev_admitted & ~stopped;
    if (looping == 0) break;

    std::uint64_t* const cur = s_frontier_[fi].data();
    std::uint64_t* const cur_union = s_frontier_union_[fi].data();
    const std::size_t cur_words = s_frontier_union_[fi].size();
    fi ^= 1;
    admitted_round = 0;
    if (deferred) s_zero_edges_.clear();

    for (std::size_t w = 0; w < cur_words; ++w) {
      std::uint64_t bits = cur_union[w];
      if (bits == 0) continue;
      cur_union[w] = 0;  // consumed
      do {
        const Node u = static_cast<Node>((w << 6) + std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t fmask = cur[u] & looping;
        cur[u] = 0;  // consumed (dropping stopped lanes' bits — the mask
                     // analogue of the scalar certify-break scrub)
        if (fmask == 0) continue;
        const auto adj = g.neighbors(u);
        const auto mirror = g.mirror_positions(u);
        std::uint64_t contributed = 0;

        // Cohort stream: every lane whose tree parent of u sits at the
        // shared (first-recorded) position runs off one lane-major row.
        // The consult masks are pre-scanned: positions name distinct
        // neighbours, so no admit at one position can change another's
        // mask, and knowing how many columns the node actually reads picks
        // the cheaper flip — a full transpose when several are consulted,
        // a per-column gather-extract when (typically, deep in a solve)
        // only one or two are.
        const std::uint64_t shared = fmask & ~s_divergent_[u];
        if (shared != 0) {
          const unsigned parent_pos = s_shared_pos_[u];
          std::uint64_t consult_of[64];
          unsigned pos_of[64];
          unsigned needed = 0;
          for (unsigned p = 0; p < adj.size(); ++p) {
            const Node v = adj[p];
            if (p == parent_pos || !eligible(v)) continue;
            const std::uint64_t consult = shared & ~s_member_[v];
            if (consult == 0) continue;
            consult_of[needed] = consult;
            pos_of[needed++] = p;
          }
          const std::uint64_t* row = nullptr;
          if (needed >= 3) {
            row = oracle.transposed_row(u, parent_pos);
          } else if (needed != 0) {
            // A prior run of this cohort (a probe, for the final pass) may
            // have transposed this exact (u, pivot) already; the cached
            // block is cheaper than even a 1-column gather.
            row = oracle.cached_row(u, parent_pos);
            if (row == nullptr) oracle.gather_rows(u, parent_pos);
          }
          for (unsigned k = 0; k < needed; ++k) {
            const unsigned p = pos_of[k];
            const std::uint64_t consult = consult_of[k];
            oracle.charge(consult);
            const std::uint64_t zero =
                consult & ~(row != nullptr ? row[p] : oracle.column(p));
            if (zero == 0) continue;
            const Node v = adj[p];
            if (!deferred) {
              admit(v, zero, mirror[p]);
              contributed |= zero;
            } else {
              s_zero_edges_.push_back(SlicedEdge{u, v, mirror[p], zero});
            }
          }
        }

        // Peel path: divergent lanes replay the scalar per-node walk over
        // their own packed row (their parent pivot differs), charging
        // single-lane masks.
        for (std::uint64_t dm = fmask & s_divergent_[u]; dm != 0;
             dm &= dm - 1) {
          const unsigned L = static_cast<unsigned>(std::countr_zero(dm));
          const std::uint64_t lane_bit = std::uint64_t{1} << L;
          const unsigned parent_pos =
              s_divergent_pos_[(static_cast<std::size_t>(u) << 6) | L];
          std::uint64_t row = 0;
          bool have_row = false;
          for (unsigned p = 0; p < adj.size(); ++p) {
            const Node v = adj[p];
            if (p == parent_pos || (s_member_[v] & lane_bit) != 0 ||
                !eligible(v)) {
              continue;
            }
            if (!have_row) {
              row = oracle.lane(L).row_bits(u, parent_pos);
              have_row = true;
            }
            oracle.charge(lane_bit);
            if ((row >> p) & 1) continue;
            if (!deferred) {
              admit(v, lane_bit, mirror[p]);
              contributed |= lane_bit;
            } else {
              s_zero_edges_.push_back(SlicedEdge{u, v, mirror[p], lane_bit});
            }
          }
        }

        if (!deferred && contributed != 0) credit(u, contributed);
      } while (bits != 0);
    }

    if (deferred) {
      if (rule_ == ParentRule::kSpread) {
        // Pass A, lane-masked: per parent group, each lane claims its
        // first still-admittable child (the scalar `claimed` flag, one
        // bit per lane). Events stay grouped by parent in ascending
        // order — the shared stream and any peel events of the same node
        // are pushed contiguously.
        std::size_t i = 0;
        while (i < s_zero_edges_.size()) {
          const Node u = s_zero_edges_[i].parent;
          std::uint64_t claimed = 0;
          std::size_t j = i;
          for (; j < s_zero_edges_.size() && s_zero_edges_[j].parent == u;
               ++j) {
            const SlicedEdge& e = s_zero_edges_[j];
            const std::uint64_t adm =
                e.lanes & ~claimed & ~s_member_[e.child];
            if (adm != 0) {
              admit(e.child, adm, e.child_parent_pos);
              credit(u, adm);
              claimed |= adm;
            }
          }
          i = j;
        }
      } else if (rule_ == ParentRule::kHashSpread) {
        std::sort(s_zero_edges_.begin(), s_zero_edges_.end(),
                  [](const SlicedEdge& a, const SlicedEdge& b) {
                    if (a.child != b.child) return a.child < b.child;
                    const auto ha = mix64(a.parent, a.child);
                    const auto hb = mix64(b.parent, b.child);
                    if (ha != hb) return ha < hb;
                    return a.parent < b.parent;
                  });
      }
      // Remaining candidates (all of them under kLeastSync / kHashSpread)
      // go to the first admitting parent in edge order, per lane.
      for (const SlicedEdge& e : s_zero_edges_) {
        const std::uint64_t adm = e.lanes & ~s_member_[e.child];
        if (adm != 0) {
          admit(e.child, adm, e.child_parent_pos);
          credit(e.parent, adm);
        }
      }
    }

    for (std::uint64_t m = admitted_round; m != 0; m &= m - 1) {
      ++out[std::countr_zero(m)].rounds;
    }
    prev_admitted = admitted_round;
  }

  // Scrub frontier state an early stop may have left admitted but never
  // consumed; membership/contributor masks stay readable until the next
  // sliced run (sliced_member_mask).
  for (const Node v : s_touched_) {
    s_frontier_[0][v] = 0;
    s_frontier_[1][v] = 0;
    s_frontier_union_[0][v >> 6] = 0;
    s_frontier_union_[1][v >> 6] = 0;
  }

  vfold(contrib_planes, &SlicedLaneResult::contributors);
  vfold(member_planes, &SlicedLaneResult::member_count);
  for (std::uint64_t m = active; m != 0; m &= m - 1) {
    const unsigned L = static_cast<unsigned>(std::countr_zero(m));
    if (out[L].contributors > delta) out[L].all_healthy = true;
  }
}

}  // namespace mmdiag
