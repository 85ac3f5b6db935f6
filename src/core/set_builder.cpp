#include "core/set_builder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>
#include <type_traits>

#include "util/thread_pool.hpp"

namespace mmdiag {

namespace {

/// Word blocks per pool lane in a pulled round: dynamic scheduling evens
/// out rounds whose frontier crowds one part of the id range.
constexpr std::size_t kPullBlocksPerLane = 4;

}  // namespace

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
  parent_dim_.assign(n, 0u);
}

void SetBuilder::require_csr(const char* what) const {
  if (graph_ == nullptr) {
    throw std::logic_error(std::string("Set_Builder: ") + what +
                           " requires a CSR graph, not an implicit view");
  }
}

void SetBuilder::start_run(Node u0) {
  in_set_.clear();
  is_contributor_.clear();
  // The frontier bitmaps are clean on every normal exit (a push run zeroes
  // words as it reads them and scrubs after a certify break; a pulled run
  // zeroes both at its end), so a full fill is only owed when the previous
  // run was abandoned mid-way — an oracle that threw between admissions.
  if (!frontier_clean_) {
    std::fill(frontier_words_[0].begin(), frontier_words_[0].end(), 0u);
    std::fill(frontier_words_[1].begin(), frontier_words_[1].end(), 0u);
  }
  frontier_clean_ = false;
  in_set_.insert(u0);
  last_seed_ = u0;
}

template <class GV>
void SetBuilder::record_parent([[maybe_unused]] const GV& g, Node v,
                               Node parent, [[maybe_unused]] unsigned pos) {
  if constexpr (std::is_same_v<GV, ImplicitGraph>) {
    parent_dim_[v] = static_cast<std::uint8_t>(std::countr_zero(parent ^ v));
  } else {
    parent_pos_of_[v] = g.mirror_position(parent, pos);
  }
}

template <class GV, class Eligible, class Admit>
std::uint64_t SetBuilder::seed_round(const SyndromeOracle& oracle,
                                     const TableOracle* table, const GV& g,
                                     Node u0, const Eligible& eligible,
                                     const Admit& admit) {
  // A table serves the seed's rows whole where a row fits one word; the
  // look-ups they serve are returned for one add_lookups() flush.
  const bool word_rows = table != nullptr && g.max_degree() <= 64;
  std::uint64_t row_served = 0;
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
        one = table != nullptr ? table->test(u0, pa, pb)
                               : oracle.test(u0, pa, pb, va, vb);
      }
      if (!one) {
        if (in_set_.insert(va)) admit(va, pa);
        if (in_set_.insert(vb)) admit(vb, pb);
      }
    }
  }
  return row_served;
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

  start_run(u0);
  SetBuilderResult result;
  const std::size_t member_hint =
      plan != nullptr ? static_cast<std::size_t>(plan->component_size())
                      : g.num_nodes();
  result.members.reserve(member_hint);
  result.parent.reserve(member_hint);
  result.members.push_back(u0);
  result.parent.push_back(kNoNode);

  // Flips each round: `fi` indexes the frontier being filled.
  unsigned fi = 0;
  std::size_t next_count = 0;

  // `pos` is v's position in adj(parent), from which the view records t(v)
  // once per member.
  auto add_member = [&](Node v, Node parent, unsigned pos) {
    result.members.push_back(v);
    result.parent.push_back(parent);
    record_parent(g, v, parent, pos);
    frontier_words_[fi][v >> 6] |= std::uint64_t{1} << (v & 63);
    ++next_count;
  };

  // ---- Round 1: U_1 from u0's pair tests. ----------------------------------
  // Look-ups served from packed rows, flushed to the oracle's counter once
  // at the end — totals match the per-call path exactly.
  std::uint64_t row_served =
      seed_round(oracle, table, g, u0, eligible,
                 [&](Node v, unsigned pos) { add_member(v, u0, pos); });
  if (next_count > 0) {
    is_contributor_.insert(u0);
    result.contributors = 1;
    result.rounds = 1;
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
        auto consult = [&](unsigned p, Node v, Node parent,
                           unsigned parent_pos) {
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
          // in_set_'s words, and nothing is computed when there are none
          // (the parent is a member, so never a candidate). Candidates go
          // in the view's ascending order — u's set bits by descending
          // index, then its unset bits ascending — the order the CSR loop
          // below walks, so admissions match it member for member.
          const std::uint32_t cand =
              g.clear_neighbor_dims(u, in_set_.words(), free_dims);
          if (cand != 0) {
            const unsigned parent_dim = parent_dim_[u];
            const Node parent = u ^ (Node{1} << parent_dim);
            const unsigned parent_pos = g.dimension_position(u, parent_dim);
            auto visit = [&](unsigned d) {
              const Node v = u ^ (Node{1} << d);
              if (generic_plan && !eligible(v)) return;
              consult(g.dimension_position(u, d), v, parent, parent_pos);
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
          const unsigned parent_pos = parent_pos_of_[u];
          const auto adj = g.neighbors(u);
          const Node parent = adj[parent_pos];
          for (unsigned p = 0; p < adj.size(); ++p) {
            const Node v = adj[p];
            if (p == parent_pos || in_set_.contains(v) || !eligible(v)) {
              continue;
            }
            consult(p, v, parent, parent_pos);
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

// The pulled run (DESIGN.md §2.1). Round 1 is the push loop's. From round 2
// on, every non-member v of a membership word is a candidate when some
// neighbour is in the frontier F, and walks its frontier neighbours in the
// view's ascending order — its set bits by descending index, then its clear
// bits ascending — consulting s_u(v, t(u)) for each and joining through the
// first that reads 0. That is exactly the push loop's consult sequence for
// v under kLeastFirst, so parents, rounds, contributors and look-ups agree.
//
// A word's 64 candidates walk in lockstep, one dimension at a time, their
// frontier bits read from the same loads that found them
// (ImplicitGraph::neighbor_words): dimensions from 6 up are bits of the
// word index, so the same for all 64; dimensions 0-5 split the word by the
// candidate's own bit. Candidates are independent within a round: a lane
// reads the frontier (fixed for the round) and the parents of frontier
// nodes (written in an earlier round), and writes only its own words of
// the membership set and the next frontier, and the parent bytes of its
// own nodes. Contributor bits are the exception — u's word belongs to
// whichever lane holds u — so they are set atomically.
SetBuilderCounts SetBuilder::run_pulled(const SyndromeOracle& oracle, Node u0,
                                        unsigned delta, ThreadPool* lanes) {
  if (implicit_ == nullptr) {
    throw std::logic_error(
        "Set_Builder: run_pulled requires the hypercube's implicit view, not "
        "a CSR graph");
  }
  if (rule_ != ParentRule::kLeastFirst) {
    throw std::logic_error("Set_Builder: run_pulled requires the " +
                           to_string(ParentRule::kLeastFirst) +
                           " rule, not " + to_string(rule_));
  }
  const ImplicitGraph& g = *implicit_;
  if (u0 >= g.num_nodes()) throw std::invalid_argument("Set_Builder: bad seed");
  const auto* table = dynamic_cast<const TableOracle*>(&oracle);

  start_run(u0);
  SetBuilderCounts out;
  out.member_count = 1;
  std::uint64_t admitted = 0;
  std::uint64_t* const first = frontier_words_[0].data();
  oracle.add_lookups(seed_round(oracle, table, g, u0,
                                [](Node) { return true; },
                                [&](Node v, unsigned pos) {
                                  record_parent(g, v, u0, pos);
                                  first[v >> 6] |= std::uint64_t{1}
                                                   << (v & 63);
                                  ++admitted;
                                }));
  if (admitted > 0) {
    is_contributor_.insert(u0);
    out.contributors = 1;
    out.rounds = 1;
  }

  const std::span<std::uint64_t> member = in_set_.bulk_words();
  const std::span<std::uint64_t> contributor = is_contributor_.bulk_words();
  const std::size_t words = member.size();
  // Q_1-Q_5 fill part of one word: the padding bits are no candidates.
  const std::uint64_t live = g.num_nodes() >= 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << g.num_nodes()) - 1;
  const unsigned n = g.max_degree();
  const unsigned low = std::min(n, 6u);
  // A cube of one word (Q_1-Q_6) makes one block: the calling thread
  // pulls it without waking the pool.
  const std::size_t blocks =
      lanes != nullptr ? std::min(words, std::size_t{lanes->size()} *
                                             kPullBlocksPerLane)
                       : 1;
  pull_tally_.assign(blocks > 1 ? lanes->size() : 1, PullTally{});
  std::uint64_t lookups = 0;
  unsigned fi = 0;  // frontier_words_[fi] holds the round's frontier

  while (admitted > 0) {
    out.member_count += admitted;
    if (out.contributors > delta) {
      out.all_healthy = true;
      if (stop_on_certify_) break;
    }
    const std::span<const std::uint64_t> frontier = frontier_words_[fi];
    std::uint64_t* const next = frontier_words_[fi ^ 1].data();

    // Pulls words [begin, end), which no other lane writes. Every
    // next-frontier word is assigned, so that buffer needs no clearing.
    auto pull = [&](std::size_t begin, std::size_t end, PullTally& tally) {
      std::array<std::uint64_t, 32> around;  // around[d]: F bits at v ^ 2^d
      PullTally t;
      for (std::size_t w = begin; w < end; ++w) {
        std::uint64_t pending = ~member[w] & live;
        std::uint64_t joined = 0;
        if (pending != 0) {
          pending &= g.neighbor_words(static_cast<Node>(w), frontier,
                                      around.data());
        }
        const Node base = static_cast<Node>(w << 6);
        // The candidates of `hits` consult their dimension-d neighbour u;
        // those whose test reads 0 join through it.
        auto step = [&](unsigned d, std::uint64_t hits) {
          for (; hits != 0; hits &= hits - 1) {
            const Node v = base + static_cast<Node>(std::countr_zero(hits));
            const Node u = v ^ (Node{1} << d);
            const unsigned parent_dim = parent_dim_[u];
            ++t.lookups;
            if (oracle.uncounted_test(u, g.dimension_position(u, d),
                                      g.dimension_position(u, parent_dim), v,
                                      u ^ (Node{1} << parent_dim))) {
              continue;
            }
            const std::uint64_t bit = hits & (~hits + 1);
            pending &= ~bit;
            joined |= bit;
            ++t.admitted;
            parent_dim_[v] = static_cast<std::uint8_t>(d);
            std::atomic_ref<std::uint64_t> word(contributor[u >> 6]);
            const std::uint64_t ubit = std::uint64_t{1} << (u & 63);
            if ((word.load(std::memory_order_relaxed) & ubit) == 0 &&
                (word.fetch_or(ubit, std::memory_order_relaxed) & ubit) == 0) {
              ++t.contributors;
            }
          }
        };
        // The walk's four legs, each candidate taking its own dimensions in
        // order: the word index's set bits descending, the candidate's own
        // set low bits descending, its clear low bits ascending, the word
        // index's clear bits ascending.
        for (unsigned d = n; pending != 0 && d-- > 6;) {
          if ((w >> (d - 6)) & 1) step(d, pending & around[d]);
        }
        for (unsigned d = low; pending != 0 && d-- > 0;) {
          step(d, pending & around[d] & ~ImplicitGraph::kDimensionClear[d]);
        }
        for (unsigned d = 0; pending != 0 && d < low; ++d) {
          step(d, pending & around[d] & ImplicitGraph::kDimensionClear[d]);
        }
        for (unsigned d = 6; pending != 0 && d < n; ++d) {
          if (((w >> (d - 6)) & 1) == 0) step(d, pending & around[d]);
        }
        next[w] = joined;
        member[w] |= joined;
      }
      tally.admitted += t.admitted;
      tally.contributors += t.contributors;
      tally.lookups += t.lookups;
    };

    if (blocks > 1) {
      lanes->parallel_for(blocks, [&](unsigned lane, std::size_t b) {
        pull(words * b / blocks, words * (b + 1) / blocks, pull_tally_[lane]);
      });
    } else {
      pull(0, words, pull_tally_[0]);
    }
    admitted = 0;
    for (PullTally& tally : pull_tally_) {
      admitted += tally.admitted;
      out.contributors += tally.contributors;
      lookups += tally.lookups;
      tally = PullTally{};
    }
    if (admitted > 0) ++out.rounds;
    fi ^= 1;
  }

  // Both bitmaps hold stale words now (the last frontier, and an old one
  // behind a certify break).
  std::fill(frontier_words_[0].begin(), frontier_words_[0].end(), 0u);
  std::fill(frontier_words_[1].begin(), frontier_words_[1].end(), 0u);
  frontier_clean_ = true;
  if (out.contributors > delta) out.all_healthy = true;
  oracle.add_lookups(lookups);
  return out;
}

void SetBuilder::run_sliced(const BitSlicedOracle& oracle, Node u0,
                            unsigned delta, std::uint64_t active,
                            SetBuilderCounts* out) {
  run_sliced_impl(oracle, u0, delta, active, nullptr, 0, out);
}

void SetBuilder::run_sliced_restricted(const BitSlicedOracle& oracle, Node u0,
                                       unsigned delta, std::uint64_t active,
                                       const PartitionPlan& plan,
                                       std::uint32_t comp,
                                       SetBuilderCounts* out) {
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
                                 SetBuilderCounts* out) {
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
    out[std::countr_zero(m)] = SetBuilderCounts{};
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
                    std::size_t SetBuilderCounts::*slot,
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
                     std::size_t SetBuilderCounts::*slot) {
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
    vadd(contrib_planes, &SetBuilderCounts::contributors, newly);
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
    vadd(member_planes, &SetBuilderCounts::member_count, lanes);
  };

  // Seed: member of every active lane.
  s_touched_.push_back(u0);
  s_member_[u0] = active;
  vadd(member_planes, &SetBuilderCounts::member_count, active);

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
      vfold(contrib_planes, &SetBuilderCounts::contributors);
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

  vfold(contrib_planes, &SetBuilderCounts::contributors);
  vfold(member_planes, &SetBuilderCounts::member_count);
  for (std::uint64_t m = active; m != 0; m &= m - 1) {
    const unsigned L = static_cast<unsigned>(std::countr_zero(m));
    if (out[L].contributors > delta) out[L].all_healthy = true;
  }
}

}  // namespace mmdiag
