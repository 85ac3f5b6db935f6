// Directed syndrome oracles — how PMC/BGM diagnosis reads per-arc tests.
//
// The same counted-look-up discipline as the MM* SyndromeOracle family: the
// per-model drivers' complexity claims (and the BGM local-diagnosis bound —
// per-request look-ups within the node's neighbourhood arc count) are about
// results consulted, so every oracle counts. TableOracle's uncounted
// row_bits analogue exists here too for whole-run readers that account in
// bulk via add_lookups.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/graph.hpp"
#include "mm/behavior.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/fault_set.hpp"
#include "util/enum_names.hpp"
#include "util/types.hpp"

namespace mmdiag {

class DirectedOracle {
 public:
  virtual ~DirectedOracle() = default;

  /// Outcome of u testing its p-th neighbour. Counted.
  [[nodiscard]] bool test(Node u, unsigned p) const {
    ++lookups_;
    return test_impl(u, p);
  }

  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  void reset_lookups() const noexcept { lookups_ = 0; }

  /// Bulk accounting for word-granular readers (see SyndromeOracle).
  void add_lookups(std::uint64_t n) const noexcept { lookups_ += n; }

  /// The test semantics this oracle's syndrome was produced under.
  [[nodiscard]] DiagnosisModel model() const noexcept { return model_; }

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

 protected:
  DirectedOracle(const Graph& g, DiagnosisModel model)
      : graph_(&g), model_(model) {}
  [[nodiscard]] virtual bool test_impl(Node u, unsigned p) const = 0;

 private:
  const Graph* graph_;
  DiagnosisModel model_;
  mutable std::uint64_t lookups_ = 0;
};

/// require_oracle_shape (mm/oracle.hpp) for a directed oracle, whose shape
/// is that of the CSR graph() it reads: throws std::invalid_argument, naming
/// both shapes, when that graph differs from the solver's in node count or
/// minimum or maximum degree. O(1). Defined beside the MM* rule in
/// mm/oracle.cpp.
void require_oracle_shape(const char* who, const DirectedOracle& oracle,
                          std::size_t nodes, unsigned min_degree,
                          unsigned max_degree);

/// Reads a pre-materialised directed syndrome table.
class DirectedTableOracle final : public DirectedOracle {
 public:
  DirectedTableOracle(const Graph& g, const DirectedSyndrome& syndrome,
                      DiagnosisModel model)
      : DirectedOracle(g, model), syndrome_(&syndrome) {}

  /// Raw word-level read of u's whole outgoing run — uncounted, like
  /// TableOracle::row_bits; callers account consulted arcs via
  /// add_lookups(). Requires degree(u) <= 64.
  [[nodiscard]] std::uint64_t row_bits(Node u) const noexcept {
    return syndrome_->row_bits(u);
  }

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned p) const override {
    return syndrome_->test(u, p);
  }

 private:
  const DirectedSyndrome* syndrome_;
};

/// Computes directed results on demand from the (hidden) fault set — the
/// per-arc analogue of LazyOracle. Deterministic: repeated look-ups of the
/// same arc agree.
class DirectedLazyOracle final : public DirectedOracle {
 public:
  DirectedLazyOracle(const Graph& g, const FaultSet& faults,
                     DiagnosisModel model, FaultyBehavior behavior,
                     std::uint64_t seed)
      : DirectedOracle(g, model),
        faults_(&faults),
        behavior_(behavior),
        seed_(seed) {}

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned p) const override {
    const Node v = graph().neighbor(u, p);
    return directed_test_result(model(), behavior_, seed_, u, v,
                                faults_->is_faulty(u), faults_->is_faulty(v));
  }

 private:
  const FaultSet* faults_;
  FaultyBehavior behavior_;
  std::uint64_t seed_;
};

}  // namespace mmdiag
