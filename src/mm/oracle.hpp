// Syndrome oracles: how diagnosis algorithms read test results.
//
// §6 of the paper argues that Set_Builder's advantage over Chiang–Tan is
// that it consults only (Δ-1)(Δ/2 + |U_r| - 1) results instead of the whole
// table. Every oracle therefore counts look-ups, and a lazy oracle serves
// syndromes that were never materialised (equivalent to performing tests on
// demand in the machine).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/syndrome.hpp"
#include "util/types.hpp"

namespace mmdiag {

class ImplicitGraph;

namespace detail {
/// The base class carries a CSR pointer for consumers like the verifier;
/// oracles driven by a non-CSR GraphView have none to offer.
inline const Graph* erased_graph(const Graph& g) noexcept { return &g; }
template <class GV>
const Graph* erased_graph(const GV&) noexcept {
  return nullptr;
}
}  // namespace detail

/// The node count and degree range of the view an oracle reads.
struct OracleShape {
  std::size_t nodes = 0;
  unsigned min_degree = 0;
  unsigned max_degree = 0;
};

class SyndromeOracle {
 public:
  virtual ~SyndromeOracle() = default;

  /// s_u over adjacency positions i != j of u. Counted.
  [[nodiscard]] bool test(Node u, unsigned i, unsigned j) const {
    ++lookups_;
    return test_impl(u, i, j);
  }

  /// test(u, i, j) for a caller that already holds the compared nodes:
  /// v and w must be u's neighbours at positions i and j in the adjacency
  /// this oracle reads (v = N_u[i], w = N_u[j]). Same outcome, counted
  /// exactly like test(u, i, j); an oracle that computes outcomes from
  /// nodes skips re-deriving them.
  [[nodiscard]] bool test(Node u, unsigned i, unsigned j, Node v,
                          Node w) const {
    ++lookups_;
    return endpoint_test_impl(u, i, j, v, w);
  }

  /// The outcome test(u, i, j, v, w) returns, deliberately *uncounted*,
  /// like TableOracle::row_bits: the counter is one unsynchronised word,
  /// so a reader that splits one run over threads (SetBuilder::run_pulled)
  /// reads through here, tallies the pairs it consults per thread and
  /// records them once via add_lookups(), keeping the counter
  /// bit-identical to the per-pair path. The table, lazy and fault-free
  /// oracles compute outcomes from immutable state, so concurrent reads of
  /// one of them are safe; OverlayOracle is not (it forwards to its inner
  /// oracle's counted read), and churn never pulls a run.
  [[nodiscard]] bool uncounted_test(Node u, unsigned i, unsigned j, Node v,
                                    Node w) const {
    return endpoint_test_impl(u, i, j, v, w);
  }

  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  void reset_lookups() const noexcept { lookups_ = 0; }

  /// Bulk accounting for word-granular readers: a caller that served `n`
  /// logical look-ups from one packed row read records them here so the
  /// counter stays bit-identical to having called test() n times.
  void add_lookups(std::uint64_t n) const noexcept { lookups_ += n; }

  /// False for oracles over an implicit view (and the graph-less
  /// FaultFreeOracle): graph() must not be called on them.
  [[nodiscard]] bool has_graph() const noexcept { return graph_ != nullptr; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// False for an oracle built over no view, such as the graph-less
  /// FaultFreeOracle: shape() is then meaningless.
  [[nodiscard]] bool has_shape() const noexcept { return has_shape_; }
  [[nodiscard]] const OracleShape& shape() const noexcept { return shape_; }

 protected:
  SyndromeOracle() = default;
  /// Records the view's shape; a CSR view also becomes graph().
  template <GraphView GV>
  explicit SyndromeOracle(const GV& view)
      : graph_(detail::erased_graph(view)),
        shape_{view.num_nodes(), view.min_degree(), view.max_degree()},
        has_shape_(true) {}
  [[nodiscard]] virtual bool test_impl(Node u, unsigned i, unsigned j) const = 0;
  /// The endpoint form's outcome; by default the position read.
  [[nodiscard]] virtual bool endpoint_test_impl(Node u, unsigned i,
                                                unsigned j, Node /*v*/,
                                                Node /*w*/) const {
    return test_impl(u, i, j);
  }

 private:
  const Graph* graph_ = nullptr;
  OracleShape shape_;
  bool has_shape_ = false;
  mutable std::uint64_t lookups_ = 0;
};

/// Throws std::invalid_argument, naming both shapes, when `oracle` reads a
/// view whose node count, minimum degree or maximum degree differs from
/// the solver's: a request paired with another graph's syndrome would
/// otherwise index past that syndrome's rows (or, for a lazy oracle, past
/// its fault set). Against a regular solver graph (every calibration's is)
/// a match means the oracle's view is regular of the same degree, so it
/// places every row where the solver reads it; against an irregular one
/// the check is necessary, not sufficient. O(1); shape-free oracles pass.
/// `who` prefixes the message.
void require_oracle_shape(const char* who, const SyndromeOracle& oracle,
                          std::size_t nodes, unsigned min_degree,
                          unsigned max_degree);

/// Reads a pre-materialised syndrome table. The endpoint look-up keeps the
/// position read: the nodes add nothing to a table's addressing.
class TableOracle final : public SyndromeOracle {
 public:
  TableOracle(const Graph& g, const Syndrome& syndrome)
      : SyndromeOracle(g), syndrome_(&syndrome) {}

  /// Raw word-level row read: bit p = s_u(i, p) for every position p != i
  /// of u (Syndrome::row_bits). Deliberately *uncounted* — a row read is a
  /// physical access pattern, not a batch of logical look-ups. Callers
  /// account exactly the pairs they consult via add_lookups(), so the
  /// counter stays bit-identical to the per-pair test() path (§6's look-up
  /// complexity is about results consulted, not words touched).
  /// Requires degree(u) <= 64.
  [[nodiscard]] std::uint64_t row_bits(Node u, unsigned i) const noexcept {
    return syndrome_->row_bits(u, i);
  }

  /// Split row addressing (Syndrome::row_location / row_bits_at): cohort
  /// readers resolve a row's location once — it is layout-determined, hence
  /// identical for every syndrome on the same graph — and issue one raw
  /// read per lane. Uncounted, like row_bits.
  [[nodiscard]] Syndrome::RowLocation row_location(Node u,
                                                   unsigned i) const noexcept {
    return syndrome_->row_location(u, i);
  }
  [[nodiscard]] std::uint64_t row_bits_at(
      Syndrome::RowLocation loc) const noexcept {
    return syndrome_->row_bits_at(loc);
  }

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned i, unsigned j) const override {
    return syndrome_->test(u, i, j);
  }

 private:
  const Syndrome* syndrome_;
};

/// Computes results on demand from the (hidden) fault set — the "perform the
/// test only when consulted" execution mode of §6. Deterministic: repeated
/// look-ups of the same pair agree. Templated over the GraphView supplying
/// adjacency: LazyOracleOn<Graph> is the classic CSR-backed lazy oracle;
/// LazyOracleOn<ImplicitGraph> is the O(1)-memory oracle of the scale path
/// (nodes named by position through the view's closed-form neighbor(u, p),
/// so the outcomes — and thus every downstream result — match the CSR
/// instantiation bit for bit). An outcome depends only on u and the two
/// compared nodes, so the endpoint form computes it from the nodes the
/// caller holds and never touches the view.
template <class GV>
class LazyOracleOn final : public SyndromeOracle {
 public:
  LazyOracleOn(const GV& g, const FaultSet& faults, FaultyBehavior behavior,
               std::uint64_t seed)
      : SyndromeOracle(g),
        view_(&g),
        faults_(&faults),
        behavior_(behavior),
        seed_(seed) {}

  [[nodiscard]] const GV& view() const noexcept { return *view_; }

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned i, unsigned j) const override {
    return outcome(u, view_->neighbor(u, i), view_->neighbor(u, j));
  }
  [[nodiscard]] bool endpoint_test_impl(Node u, unsigned, unsigned, Node v,
                                        Node w) const override {
    return outcome(u, v, w);
  }

 private:
  [[nodiscard]] bool outcome(Node u, Node v, Node w) const {
    if (!faults_->is_faulty(u)) {
      return faults_->is_faulty(v) || faults_->is_faulty(w);
    }
    return faulty_test_result(behavior_, seed_, u, v, w, faults_->is_faulty(v),
                              faults_->is_faulty(w));
  }

  const GV* view_;
  const FaultSet* faults_;
  FaultyBehavior behavior_;
  std::uint64_t seed_;
};

using LazyOracle = LazyOracleOn<Graph>;
using ImplicitLazyOracle = LazyOracleOn<ImplicitGraph>;

/// The all-healthy syndrome (every test 0) — used to calibrate partition
/// certification without materialising anything. View-independent, so it
/// needs no graph at all; the CSR-reference ctor is kept for callers that
/// have one handy.
class FaultFreeOracle final : public SyndromeOracle {
 public:
  FaultFreeOracle() = default;
  explicit FaultFreeOracle(const Graph& g) : SyndromeOracle(g) {}

 protected:
  [[nodiscard]] bool test_impl(Node, unsigned, unsigned) const override {
    return false;
  }
  [[nodiscard]] bool endpoint_test_impl(Node, unsigned, unsigned, Node,
                                        Node) const override {
    return false;
  }
};

// ---------------------------------------------------------------------------
// Bitsliced cohort view: structure-of-arrays over up to 64 TableOracles.
// ---------------------------------------------------------------------------

/// A lane-major, lazily-transposed view of up to 64 syndromes on one graph.
///
/// Row storage (Syndrome / TableOracle::row_bits) packs one syndrome's
/// s_u(pivot, ·) row into a word: bit p = outcome at neighbour position p.
/// The cohort kernel (SetBuilder::run_sliced) wants the *other* axis in
/// registers — for a fixed (u, pivot, p), the outcome of every cohort
/// member at once — so transposed_row() gathers each lane's packed row and
/// flips the 64×64 bit block (transpose64): word p of the result has bit
/// L = lane L's s_u(pivot, p). One gather+transpose then serves up to
/// 64 lanes × degree consults. The transpose is lazy and per-(u, pivot):
/// a whole-table transpose would touch ~60× more pairs than a solve reads.
///
/// Look-up accounting is per lane and charged per *consulted pair*, never
/// per word read, so each lane's counter stays bit-identical to a scalar
/// run of that lane alone: charge(mask) adds one look-up to every lane in
/// the mask. Charges land in vertical (carry-save) bit-plane counters —
/// one ripple-add of the mask, ~2 word ops amortised — instead of a
/// 64-iteration scalar loop per charge; lane_lookups() folds the planes.
/// The kernel flushes lane_lookups() into each TableOracle's counter via
/// add_lookups(), exactly like the scalar word-row path.
///
/// Single-threaded by design (one cohort per worker lane): the transpose
/// scratch and counters are unsynchronised, like every oracle's counter.
///
/// Transposed blocks persist in a per-cohort cache (direct-mapped,
/// kCacheSlots blocks) for the oracle's lifetime — one diagnose_cohort,
/// probes and final runs included. The final unrestricted run re-reads
/// rows the probe phase already flipped (the certified seed's round-1
/// rows at minimum; every shared (node, pivot) when the rules coincide),
/// and a cache hit serves the stored block instead of re-gathering and
/// re-transposing. The cache changes which words are *touched*, never
/// their content — rows are immutable for the cohort's lifetime — so lane
/// results and per-pair charges are bit-identical with it on
/// (tests/dispatch_equiv_test.cpp asserts results, look-ups and hits > 0).
class BitSlicedOracle {
 public:
  static constexpr unsigned kMaxLanes = 64;
  /// Direct-mapped transpose-cache slots (blocks of 64 words, ~1 MiB
  /// resident once touched). Collisions overwrite — the cache is a reuse
  /// accelerator, never a correctness surface.
  static constexpr std::size_t kCacheSlots = 2048;

  /// Throws std::invalid_argument when g's rows are wider than one word
  /// (degree > 64): such cohorts take the scalar path.
  explicit BitSlicedOracle(const Graph& g) : graph_(&g) {
    if (g.max_degree() > 64) {
      throw std::invalid_argument(
          "BitSlicedOracle: rows wider than one word (degree > 64)");
    }
  }

  /// Registers the next lane; throws std::invalid_argument past 64 lanes
  /// or when the lane's graph differs from graph() in node count or
  /// minimum or maximum degree (require_oracle_shape). The oracle must
  /// address the same adjacency as graph() — the standard
  /// cohort-by-shared-spec rule.
  unsigned add_lane(const TableOracle& lane) {
    if (width_ >= kMaxLanes) {
      throw std::invalid_argument("BitSlicedOracle: cohort wider than 64");
    }
    require_oracle_shape("BitSlicedOracle", lane, graph_->num_nodes(),
                         graph_->min_degree(), graph_->max_degree());
    lanes_[width_] = &lane;
    // A cached block encodes the cohort width it was built at (unused lanes
    // zero-filled), so widening the cohort invalidates everything.
    if (!cache_tags_.empty()) {
      std::fill(cache_tags_.begin(), cache_tags_.end(), kEmptyTag);
    }
    return width_++;
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] const TableOracle& lane(unsigned i) const noexcept {
    return *lanes_[i];
  }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// All registered lanes as a mask: bit L set for lane L.
  [[nodiscard]] std::uint64_t full_mask() const noexcept {
    return width_ >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << width_) - 1;
  }

  /// The cohort's s_u(pivot, ·) rows flipped lane-major: word p of the
  /// returned array has bit L = lane L's s_u(pivot, p); only words
  /// p < degree(u) are meaningful. Uncounted, like row_bits — callers
  /// charge() exactly the pairs they consult. The pointer targets the
  /// persistent row cache and stays valid until add_lane() or a colliding
  /// (u, pivot) overwrites the slot; treat it as single-use, like scratch.
  [[nodiscard]] const std::uint64_t* transposed_row(Node u,
                                                    unsigned pivot) const {
    const std::uint64_t key = cache_key(u, pivot);
    std::uint64_t* block = cache_block(key);
    if (cache_tags_[cache_slot(key)] == key) {
      ++cache_hits_;
      return block;
    }
    gather_rows(u, pivot);
    for (unsigned i = width_; i < kMaxLanes; ++i) scratch_[i] = 0;
    transpose64(scratch_.data());
    std::copy(scratch_.begin(), scratch_.end(), block);
    cache_tags_[cache_slot(key)] = key;
    return block;
  }

  /// The cached transposed block for (u, pivot), or nullptr when the cache
  /// has no current entry for it. Lets the gather/column fast path (reads
  /// of < 3 columns) still reuse a block a full transpose already paid
  /// for, without paying one itself on a miss.
  [[nodiscard]] const std::uint64_t* cached_row(Node u, unsigned pivot) const {
    if (cache_tags_.empty()) return nullptr;
    const std::uint64_t key = cache_key(u, pivot);
    if (cache_tags_[cache_slot(key)] != key) return nullptr;
    ++cache_hits_;
    return cache_blocks_.data() + cache_slot(key) * kMaxLanes;
  }

  /// Transposed blocks served from the cache since construction. Not an
  /// accounting counter — reset_accounting() leaves it alone (the cache
  /// survives across probes precisely so the final run hits it).
  [[nodiscard]] std::uint64_t row_cache_hits() const noexcept {
    return cache_hits_;
  }

  /// Gathers each lane's packed s_u(pivot, ·) row into internal scratch
  /// *without* transposing — pair with column() when only a few positions
  /// will be consulted. A full 64×64 transpose costs ~770 word ops flat;
  /// extracting a single column costs ~4 per lane, so the gather+column
  /// route wins whenever fewer than ~3 columns are read (deep rounds of a
  /// solve consult ≈1 position per node). Uncounted; invalidates the
  /// previous gather/transpose.
  void gather_rows(Node u, unsigned pivot) const {
    // The row's location is layout-determined and the cohort rule pins all
    // lanes to one graph, so resolve it once instead of re-walking each
    // lane's (identical) offset/degree tables — that alone halves the
    // scattered cache lines a gather touches.
    const Syndrome::RowLocation loc = lanes_[0]->row_location(u, pivot);
    for (unsigned i = 0; i < width_; ++i) {
      scratch_[i] = lanes_[i]->row_bits_at(loc);
    }
  }

  /// Column p of the last gather_rows() block: bit L = lane L's
  /// s_u(pivot, p) — the same word transposed_row()[p] would hold.
  [[nodiscard]] std::uint64_t column(unsigned p) const noexcept {
    std::uint64_t c = 0;
    for (unsigned i = 0; i < width_; ++i) {
      c |= ((scratch_[i] >> p) & std::uint64_t{1}) << i;
    }
    return c;
  }

  // --- per-lane look-up accounting ----------------------------------------

  /// Pending charges per plane before a lane's vertical counter spills into
  /// its scalar slot: 2^kPlanes - 1 = 63.
  static constexpr unsigned kPlanes = 6;

  /// Zeroes every lane counter.
  void reset_accounting() const noexcept {
    served_.fill(0);
    planes_.fill(0);
  }

  /// One syndrome look-up for every lane in `lanes`: a carry-save ripple
  /// add of the mask into the bit planes (bit L of plane k = bit k of lane
  /// L's pending count). The ripple terminates at the first carry-free
  /// plane, so the common cost is one or two word ops, independent of how
  /// many lanes the mask names.
  void charge(std::uint64_t lanes) const noexcept {
    std::uint64_t carry = lanes;
    for (unsigned k = 0; k < kPlanes; ++k) {
      const std::uint64_t t = planes_[k] & carry;
      planes_[k] ^= carry;
      carry = t;
      if (carry == 0) return;
    }
    // Lanes that just wrapped 63 pending charges spill 64 at once.
    for (; carry != 0; carry &= carry - 1) {
      served_[std::countr_zero(carry)] += std::uint64_t{1} << kPlanes;
    }
  }

  /// Look-ups charged to lane L since the last reset_accounting(). Folds
  /// the pending planes first (cheap, and callers read each lane once).
  [[nodiscard]] std::uint64_t lane_lookups(unsigned L) const noexcept {
    fold();
    return served_[L];
  }

 private:
  void fold() const noexcept {
    for (unsigned k = 0; k < kPlanes; ++k) {
      for (std::uint64_t m = planes_[k]; m != 0; m &= m - 1) {
        served_[std::countr_zero(m)] += std::uint64_t{1} << k;
      }
      planes_[k] = 0;
    }
  }

  // (u, pivot) packs into one word because pivot < 64; the tag is the key
  // itself, and kEmptyTag is unreachable (u < 2^32 keeps bit 63 clear).
  static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};
  static std::uint64_t cache_key(Node u, unsigned pivot) noexcept {
    return (std::uint64_t{u} << 6) | pivot;
  }
  static std::size_t cache_slot(std::uint64_t key) noexcept {
    static_assert(kCacheSlots == std::size_t{1} << 11);
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - 11));
  }
  std::uint64_t* cache_block(std::uint64_t key) const {
    if (cache_tags_.empty()) {
      // Lazily sized on first use: a cohort that never transposes (scalar
      // fallback paths) never pays the ~1 MiB.
      cache_tags_.assign(kCacheSlots, kEmptyTag);
      cache_blocks_.resize(kCacheSlots * kMaxLanes);
    }
    return cache_blocks_.data() + cache_slot(key) * kMaxLanes;
  }

  const Graph* graph_;
  unsigned width_ = 0;
  std::array<const TableOracle*, kMaxLanes> lanes_{};
  mutable std::array<std::uint64_t, kMaxLanes> scratch_{};
  mutable std::array<std::uint64_t, kMaxLanes> served_{};
  mutable std::array<std::uint64_t, kPlanes> planes_{};
  mutable std::vector<std::uint64_t> cache_tags_;
  mutable std::vector<std::uint64_t> cache_blocks_;  // slot * kMaxLanes words
  mutable std::uint64_t cache_hits_ = 0;
};

}  // namespace mmdiag
