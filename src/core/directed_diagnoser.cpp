#include "core/directed_diagnoser.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/timer.hpp"

namespace mmdiag {

namespace {

const char kNoSolution[] = "no fault set of size <= delta is consistent";
const char kAmbiguous[] =
    "ambiguous syndrome: at least two consistent candidates";

}  // namespace

DirectedDiagnoser::DirectedDiagnoser(const Graph& graph, unsigned delta)
    : graph_(&graph), delta_(delta) {
  if (delta > graph.num_nodes()) {
    throw std::invalid_argument(
        "DirectedDiagnoser: delta exceeds the node count");
  }
  const std::size_t n = graph.num_nodes();
  arc_base_.resize(n);
  EdgeIndex total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    arc_base_[u] = total;
    total += graph.degree(static_cast<Node>(u));
  }
  outcomes_.resize(total);
  uf_parent_.resize(n);
  uf_size_.resize(n);
  state_.resize(n);
}

Node DirectedDiagnoser::find_root(Node v) noexcept {
  while (uf_parent_[v] != v) {
    uf_parent_[v] = uf_parent_[uf_parent_[v]];  // halve the path as we walk
    v = uf_parent_[v];
  }
  return v;
}

bool DirectedDiagnoser::assign(Node v, State s) {
  if (state_[v] == s) return true;
  if (state_[v] != State::kUnknown) return false;  // contradiction
  state_[v] = s;
  trail_.push_back(v);
  queue_.push_back(v);
  if (s == State::kFaulty) {
    ++faulty_count_;
    if (faulty_count_ > delta_) return false;  // budget exceeded
  }
  return true;
}

bool DirectedDiagnoser::propagate_assigned(Node x) {
  const auto adj = graph_->neighbors(x);
  const bool x_faulty = state_[x] == State::kFaulty;
  for (unsigned p = 0; p < adj.size(); ++p) {
    const Node v = adj[p];
    // A healthy tester's outcomes decide its neighbours outright.
    if (!x_faulty) {
      if (!assign(v, outcome(x, p) ? State::kFaulty : State::kHealthy)) {
        return false;
      }
    }
    // A decided unit convicts any tester whose report mismatches it.
    const bool s_in = outcome(v, graph_->mirror_position(x, p));
    if (s_in != x_faulty && !assign(v, State::kFaulty)) return false;
  }
  return true;
}

bool DirectedDiagnoser::propagate() {
  while (queue_head_ < queue_.size()) {
    const Node x = queue_[queue_head_++];
    if (!propagate_assigned(x)) return false;
  }
  queue_.clear();
  queue_head_ = 0;
  return true;
}

bool DirectedDiagnoser::budget_fixpoint() {
  bool changed = true;
  while (changed) {
    changed = false;
    const unsigned budget = delta_ - faulty_count_;
    for (const Node rep : class_reps_) {
      if (state_[rep] != State::kUnknown) continue;
      if (uf_size_[rep] > budget) {
        // Mutual-0 classes are homogeneous, and this one is too big to be
        // all faulty within the remaining budget — so it is all healthy.
        if (!assign(rep, State::kHealthy) || !propagate()) return false;
        changed = true;
        break;  // the budget moved; rescan with the fresh value
      }
    }
  }
  return true;
}

void DirectedDiagnoser::search_residue(std::size_t rep_index,
                                       std::size_t max_solutions,
                                       std::vector<std::vector<Node>>& out) {
  if (out.size() >= max_solutions) return;
  while (rep_index < class_reps_.size() &&
         state_[class_reps_[rep_index]] != State::kUnknown) {
    ++rep_index;
  }
  if (rep_index == class_reps_.size()) {
    // Every class decided — every node decided (propagation spreads any
    // assignment through the class's mutual-0 arcs). Snapshot the leaf.
    std::vector<Node> faults;
    for (Node v = 0; v < state_.size(); ++v) {
      if (state_[v] == State::kFaulty) faults.push_back(v);
    }
    out.push_back(std::move(faults));
    return;
  }

  const Node rep = class_reps_[rep_index];
  for (const State choice : {State::kHealthy, State::kFaulty}) {
    const std::size_t mark = trail_.size();
    if (assign(rep, choice) && propagate()) {
      search_residue(rep_index + 1, max_solutions, out);
    }
    queue_.clear();
    queue_head_ = 0;
    while (trail_.size() > mark) {
      const Node v = trail_.back();
      trail_.pop_back();
      if (state_[v] == State::kFaulty) --faulty_count_;
      state_[v] = State::kUnknown;
    }
    if (out.size() >= max_solutions) return;
  }
}

DiagnosisResult DirectedDiagnoser::diagnose(const DirectedOracle& oracle) {
  if (!is_directed_model(oracle.model())) {
    throw std::invalid_argument(
        "DirectedDiagnoser: oracle carries the MM* model — use Diagnoser");
  }
  // The oracle may carry its own Graph instance (the engine's calibration
  // holds a separate copy of the same topology); its shape must match, or
  // the row reads below index another graph's arcs.
  require_oracle_shape("DirectedDiagnoser", oracle, graph_->num_nodes(),
                       graph_->min_degree(), graph_->max_degree());
  model_ = oracle.model();
  oracle.reset_lookups();
  const Timer timer;
  DiagnosisResult out;

  // Read the whole syndrome once (counted): a global diagnosis can hinge on
  // any arc, and the union-find pass consults every edge anyway.
  const std::size_t n = graph_->num_nodes();
  for (std::size_t u = 0; u < n; ++u) {
    const auto node = static_cast<Node>(u);
    const unsigned d = graph_->degree(node);
    for (unsigned p = 0; p < d; ++p) {
      outcomes_[arc_base_[u] + p] = oracle.test(node, p) ? 1 : 0;
    }
  }

  std::fill(state_.begin(), state_.end(), State::kUnknown);
  trail_.clear();
  queue_.clear();
  queue_head_ = 0;
  faulty_count_ = 0;

  // Mutual-0 classes.
  for (Node v = 0; v < n; ++v) {
    uf_parent_[v] = v;
    uf_size_[v] = 1;
  }
  for (Node u = 0; u < n; ++u) {
    const auto adj = graph_->neighbors(u);
    for (unsigned p = 0; p < adj.size(); ++p) {
      const Node v = adj[p];
      if (v < u) continue;  // one visit per edge
      if (outcome(u, p) || outcome(v, graph_->mirror_position(u, p))) continue;
      Node ra = find_root(u);
      Node rb = find_root(v);
      if (ra == rb) continue;
      if (uf_size_[ra] < uf_size_[rb]) std::swap(ra, rb);
      uf_parent_[rb] = ra;
      uf_size_[ra] += uf_size_[rb];
    }
  }
  class_reps_.clear();
  for (Node v = 0; v < n; ++v) {
    if (find_root(v) == v) class_reps_.push_back(v);
  }

  bool consistent = true;

  // BGM: every 0-outcome certifies the tested unit, unconditionally.
  if (model_ == DiagnosisModel::kBGM) {
    for (Node u = 0; u < n && consistent; ++u) {
      const auto adj = graph_->neighbors(u);
      for (unsigned p = 0; p < adj.size() && consistent; ++p) {
        if (!outcome(u, p)) consistent = assign(adj[p], State::kHealthy);
      }
    }
    consistent = consistent && propagate();
  }

  consistent = consistent && budget_fixpoint();

  if (!consistent) {
    // A conflict among deductions that hold in every <= delta candidate
    // means there is no such candidate at all.
    out.failure_reason = kNoSolution;
    out.lookups = oracle.lookups();
    out.diagnose_seconds = timer.seconds();
    return out;
  }

  const bool residue =
      std::any_of(class_reps_.begin(), class_reps_.end(),
                  [&](Node rep) { return state_[rep] == State::kUnknown; });
  if (!residue) {
    for (Node v = 0; v < n; ++v) {
      if (state_[v] == State::kFaulty) out.faults.push_back(v);
    }
    out.success = true;
  } else {
    std::vector<std::vector<Node>> solutions;
    search_residue(0, 2, solutions);
    if (solutions.size() == 1) {
      out.success = true;
      out.faults = std::move(solutions.front());
    } else if (solutions.empty()) {
      out.failure_reason = kNoSolution;
    } else {
      out.failure_reason = kAmbiguous;
    }
  }
  out.lookups = oracle.lookups();
  out.diagnose_seconds = timer.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// BGM local diagnosis.
// ---------------------------------------------------------------------------

LocalDiagnosisResult bgm_local_diagnose(const Graph& graph,
                                        const DirectedOracle& oracle,
                                        Node u) {
  require_oracle_shape("bgm_local_diagnose", oracle, graph.num_nodes(),
                       graph.min_degree(), graph.max_degree());
  if (oracle.model() != DiagnosisModel::kBGM) {
    throw std::invalid_argument("bgm_local_diagnose: oracle model is " +
                                to_string(oracle.model()) +
                                " — the local rules need BGM's asymmetric "
                                "invalidation");
  }
  if (u >= graph.num_nodes()) {
    throw std::invalid_argument("bgm_local_diagnose: node out of range");
  }
  const std::uint64_t start = oracle.lookups();
  LocalDiagnosisResult out;
  const auto adj = graph.neighbors(u);

  // Rule 1: any 0 read about u certifies u healthy.
  for (unsigned p = 0; p < adj.size(); ++p) {
    if (!oracle.test(adj[p], graph.mirror_position(u, p))) {
      out.status = LocalDiagnosisStatus::kHealthy;
      out.lookups = oracle.lookups() - start;
      return out;
    }
  }
  // Past this point every neighbour reported u faulty; one certified-healthy
  // neighbour makes that report reliable.

  // Rule 2: u's own 0-outcome certifies that neighbour.
  for (unsigned p = 0; p < adj.size(); ++p) {
    if (!oracle.test(u, p)) {
      out.status = LocalDiagnosisStatus::kFaulty;
      out.lookups = oracle.lookups() - start;
      return out;
    }
  }

  // Rule 3: a 0 read about a neighbour, from anyone else, certifies it too.
  for (unsigned p = 0; p < adj.size(); ++p) {
    const Node v = adj[p];
    const auto vadj = graph.neighbors(v);
    for (unsigned q = 0; q < vadj.size(); ++q) {
      if (vadj[q] == u) continue;  // u -> v was read by rule 2
      if (!oracle.test(vadj[q], graph.mirror_position(v, q))) {
        out.status = LocalDiagnosisStatus::kFaulty;
        out.lookups = oracle.lookups() - start;
        return out;
      }
    }
  }

  out.lookups = oracle.lookups() - start;
  return out;  // every arc in the 2-ball reads 1 — locally undecidable
}

}  // namespace mmdiag
