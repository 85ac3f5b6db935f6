// Diagnosis drivers for the directed (PMC / BGM) models.
//
// DirectedDiagnoser is the global solver: a deduction-first driver that
// resolves almost every syndrome without search, falling back to a
// class-granular branch only on the (rare, small) undetermined residue.
//
//   1. Read the whole syndrome (2|E| counted look-ups — any unread arc
//      could flip a global diagnosis) and union nodes joined by a
//      *mutual-0* edge (both arcs 0). Mutual-0 classes are homogeneous:
//      a healthy node tests a faulty neighbour 1, and a healthy unit is
//      tested 1 by a faulty BGM tester or certified by a 0, so one healthy
//      / one faulty endpoints cannot both read 0. Under BGM, additionally
//      seed every 0-tested unit healthy (asymmetric invalidation makes any
//      0-outcome an unconditional health certificate).
//   2. Seed by budget: a class larger than δ − (known faults) cannot be all
//      faulty, hence is all healthy. Applied to a fixpoint, interleaved
//      with arc-consistency propagation (a healthy tester's outcomes decide
//      its neighbours; a decided unit convicts testers whose reports
//      mismatch it).
//   3. If undecided classes remain, branch on them (propagation keeps each
//      class in lockstep through its mutual-0 arcs) and count consistent
//      ≤ δ completions, stopping at two.
//
// Every deduction in 1–2 holds in *all* fault sets of size <= δ consistent
// with the syndrome, and step 3 enumerates the rest, so the driver succeeds
// with fault set F exactly when F is the unique consistent candidate — the
// same contract DirectedExactSolver implements by node-level DPLL, which the
// fuzz differ exploits by demanding identical results from both.
//
// bgm_local_diagnose is the fast path the engine serves ahead of global
// solves: it decides ONE node's status from reads inside its 2-ball, or
// returns kUnknown (at which point a global solve is the only recourse).
// Its three rules are unconditionally sound — they do not assume |F| <= δ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/diagnoser.hpp"
#include "graph/graph.hpp"
#include "mm/directed_oracle.hpp"
#include "util/enum_names.hpp"
#include "util/types.hpp"

namespace mmdiag {

class DirectedDiagnoser {
 public:
  /// `delta` is the fault bound the budget deductions reason against.
  /// Reusable across oracles; throws std::invalid_argument on delta larger
  /// than the node count (no such fault set exists to reason about).
  DirectedDiagnoser(const Graph& graph, unsigned delta);

  /// Diagnose one directed syndrome. The oracle's look-up counter is reset
  /// first, and its model must be directed (throws std::invalid_argument on
  /// an MM* oracle). Throws std::invalid_argument, before any look-up, when
  /// the oracle's graph differs from this solver's in node count or minimum
  /// or maximum degree (require_oracle_shape, O(1)). Never claims success
  /// with more than delta faults.
  [[nodiscard]] DiagnosisResult diagnose(const DirectedOracle& oracle);

  [[nodiscard]] unsigned delta() const noexcept { return delta_; }

 private:
  enum class State : std::uint8_t { kUnknown, kHealthy, kFaulty };

  [[nodiscard]] bool outcome(Node u, unsigned p) const noexcept {
    return outcomes_[arc_base_[u] + p] != 0;
  }
  [[nodiscard]] Node find_root(Node v) noexcept;

  bool assign(Node v, State s);  // false on conflict or budget overflow
  bool propagate();
  bool propagate_assigned(Node x);
  bool budget_fixpoint();
  void search_residue(std::size_t rep_index, std::size_t max_solutions,
                      std::vector<std::vector<Node>>& out);

  const Graph* graph_;
  unsigned delta_;
  DiagnosisModel model_ = DiagnosisModel::kPMC;

  std::vector<EdgeIndex> arc_base_;
  std::vector<char> outcomes_;

  std::vector<Node> uf_parent_;       // mutual-0 union-find
  std::vector<std::uint32_t> uf_size_;
  std::vector<Node> class_reps_;      // one representative per class

  std::vector<State> state_;
  std::vector<Node> trail_;
  std::vector<Node> queue_;
  std::size_t queue_head_ = 0;
  unsigned faulty_count_ = 0;
};

// ---------------------------------------------------------------------------
// BGM local diagnosis.
// ---------------------------------------------------------------------------

enum class LocalDiagnosisStatus : std::uint8_t { kHealthy, kFaulty, kUnknown };

[[nodiscard]] inline std::string to_string(LocalDiagnosisStatus status) {
  switch (status) {
    case LocalDiagnosisStatus::kHealthy:
      return "healthy";
    case LocalDiagnosisStatus::kFaulty:
      return "faulty";
    case LocalDiagnosisStatus::kUnknown:
      return "unknown";
  }
  return "?";
}

struct LocalDiagnosisResult {
  LocalDiagnosisStatus status = LocalDiagnosisStatus::kUnknown;
  /// Counted oracle reads consumed by this request alone (the caller's
  /// running counter is left intact — local requests are served many to an
  /// oracle). Bounded by 2·d(u) + Σ_{v ∈ N(u)} (d(v) − 1): the 2-ball arcs.
  std::uint64_t lookups = 0;
};

/// Decide node `u`'s status from its neighbourhood reads only, under BGM's
/// asymmetric invalidation. No global solve, no fault-bound assumption:
///
///   1. any incoming v -> u reads 0            =>  u healthy  (0 certifies);
///   2. else any outgoing u -> v reads 0       =>  v healthy, so v's report
///      u -> 1 (rule 1 failed) is reliable     =>  u faulty;
///   3. else any w -> v reads 0 for v ∈ N(u)   =>  v healthy, same as 2
///                                             =>  u faulty;
///   otherwise kUnknown — every arc in sight reads 1, which is consistent
///   with u healthy inside a large fault cluster AND with u faulty, so only
///   a global solve can break the tie.
///
/// All three rules hold for every fault set, of any size. Throws
/// std::invalid_argument, before any look-up, on an oracle whose graph
/// differs from `graph` in node count or minimum or maximum degree
/// (require_oracle_shape, O(1)), a non-BGM oracle (PMC's symmetric
/// invalidation voids rule 1) or an out-of-range node.
[[nodiscard]] LocalDiagnosisResult bgm_local_diagnose(
    const Graph& graph, const DirectedOracle& oracle, Node u);

}  // namespace mmdiag
