// Batch diagnosis: many syndromes, one topology, all cores.
//
// The §5 driver splits into a per-topology setup (certified partition,
// adjacency — expensive, fault-independent) and a per-syndrome solve
// (cheap, O(Δ·N)). A diagnosis sweep over a large regular network re-uses
// the same setup for every syndrome, so BatchDiagnoser certifies the
// partition once and fans the solves out over a fixed ThreadPool. Each
// worker lane owns a full Diagnoser (SetBuilder frontiers, StampSet
// scratch) built from the shared partition, so no mutable diagnosis state
// crosses a thread boundary and every result is bit-identical to running
// the sequential Diagnoser on the same syndrome: the per-item computation
// is the same code on the same partition, threads only decide *where* it
// runs.
//
// Oracles are the unit of work. Each oracle is consulted by exactly one
// lane (its look-up counter is mutable and unsynchronised), so callers
// must pass one oracle per syndrome, never one shared oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/diagnoser.hpp"
#include "graph/graph.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "topology/topology.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {

struct BatchOptions {
  /// Worker lanes (calling thread included); 0 = hardware concurrency.
  unsigned threads = 0;
  /// Per-item diagnosis options, identical to the sequential Diagnoser's.
  DiagnoserOptions diagnoser;
};

struct BatchResult {
  /// One entry per input, in input order.
  std::vector<DiagnosisResult> results;
  std::size_t succeeded = 0;       // results with success == true
  std::uint64_t total_lookups = 0; // summed over every result
  double seconds = 0;              // wall time of the diagnose_all call
};

class BatchDiagnoser {
 public:
  /// Certifies the partition once (throws DiagnosisUnsupportedError exactly
  /// as the sequential Diagnoser would) and spins up the pool.
  BatchDiagnoser(const Topology& topology, const Graph& graph,
                 BatchOptions options = {});

  /// Adopts an already-certified partition (e.g. from a Diagnoser that is
  /// also serving sequential traffic). Throws std::invalid_argument when
  /// options.diagnoser conflicts with the partition — a non-zero delta
  /// disagreeing with partition.delta, or a rule differing from the
  /// calibration rule (both enforced by the per-lane Diagnoser ctors).
  BatchDiagnoser(const Graph& graph, CertifiedPartition partition,
                 BatchOptions options = {});

  /// Shared-ownership variant: keeps the graph (and, through an aliasing
  /// shared_ptr, whatever calibration bundle owns it) alive for the batch
  /// engine's whole lifetime. Throws std::invalid_argument on a null graph
  /// plus everything the raw-reference adopting constructor throws.
  BatchDiagnoser(std::shared_ptr<const Graph> graph,
                 CertifiedPartition partition, BatchOptions options = {});

  /// Diagnose every oracle; oracles[i] -> results[i]. Null entries, and
  /// oracles whose graph differs from this batch's in node count or
  /// minimum or maximum degree (an O(1) check each), are rejected with
  /// std::invalid_argument before any solve. When the graph's rows fit one
  /// word and the batch holds at least 64 TableOracle inputs, all of them
  /// are solved as bitsliced cohorts (Diagnoser::diagnose_cohort):
  /// plan_cohorts cuts them, in input order, into ceil(n / 64) cohorts of
  /// near-equal width, so no table input is left to a scalar remainder.
  /// Fewer table inputs, and every other oracle, are solved one by one.
  /// Results and look-up counts are bit-identical either way.
  [[nodiscard]] BatchResult diagnose_all(
      const std::vector<const SyndromeOracle*>& oracles);

  /// Convenience: wraps each syndrome in a TableOracle over the shared
  /// graph and diagnoses the lot.
  [[nodiscard]] BatchResult diagnose_all(const std::vector<Syndrome>& syndromes);

  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }
  [[nodiscard]] unsigned delta() const noexcept { return lanes_.front()->delta(); }
  [[nodiscard]] const CertifiedPartition& partition() const noexcept {
    return lanes_.front()->partition();
  }

 private:
  std::shared_ptr<const Graph> graph_owner_;  // null on the raw-pointer path
  const Graph* graph_;
  ThreadPool pool_;
  // lanes_[k] is exclusively used by pool lane k. unique_ptr keeps the
  // Diagnosers (and their scratch) stable and avoids false sharing of
  // adjacent hot state.
  std::vector<std::unique_ptr<Diagnoser>> lanes_;
};

}  // namespace mmdiag
