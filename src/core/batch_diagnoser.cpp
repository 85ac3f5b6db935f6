#include "core/batch_diagnoser.hpp"

#include <stdexcept>

#include "core/certified_partition.hpp"
#include "util/timer.hpp"

namespace mmdiag {

BatchDiagnoser::BatchDiagnoser(const Topology& topology, const Graph& graph,
                               BatchOptions options)
    : BatchDiagnoser(graph,
                     [&] {
                       // Delegate the delta/plan resolution to a throwaway
                       // sequential Diagnoser so batch and sequential setup
                       // can never disagree.
                       return Diagnoser(topology, graph, options.diagnoser)
                           .partition();
                     }(),
                     options) {}

BatchDiagnoser::BatchDiagnoser(const Graph& graph, CertifiedPartition partition,
                               BatchOptions options)
    : graph_(&graph), pool_(options.threads) {
  // Conflicting options.diagnoser (rule mismatch, non-zero delta disagreeing
  // with partition.delta) are rejected by the first per-lane Diagnoser ctor.
  lanes_.reserve(pool_.size());
  for (unsigned lane = 0; lane < pool_.size(); ++lane) {
    lanes_.push_back(
        std::make_unique<Diagnoser>(graph, partition, options.diagnoser));
  }
}

BatchDiagnoser::BatchDiagnoser(std::shared_ptr<const Graph> graph,
                               CertifiedPartition partition,
                               BatchOptions options)
    : BatchDiagnoser(
          [&]() -> const Graph& {
            if (!graph) {
              throw std::invalid_argument("BatchDiagnoser: null graph");
            }
            return *graph;
          }(),
          std::move(partition), options) {
  graph_owner_ = std::move(graph);
}

BatchResult BatchDiagnoser::diagnose_all(
    const std::vector<const SyndromeOracle*>& oracles) {
  for (const SyndromeOracle* oracle : oracles) {
    if (oracle == nullptr) {
      throw std::invalid_argument("BatchDiagnoser: null oracle in batch");
    }
  }
  BatchResult out;
  out.results.resize(oracles.size());

  // Cohort formation: full 64-wide runs of TableOracle inputs, in input
  // order, each become one bitsliced lockstep solve; the remainder (<64)
  // and every non-table oracle stay scalar per-item work. Grouping only
  // changes which instruction stream serves a syndrome — results and
  // look-up counts per syndrome are bit-identical, so batch output still
  // matches a sequential Diagnoser exactly.
  std::vector<std::size_t> table_idx;
  if (graph_->max_degree() <= 64) {
    for (std::size_t i = 0; i < oracles.size(); ++i) {
      if (dynamic_cast<const TableOracle*>(oracles[i]) != nullptr) {
        table_idx.push_back(i);
      }
    }
  }
  const std::size_t num_cohorts = table_idx.size() / BitSlicedOracle::kMaxLanes;
  std::vector<std::size_t> scalar_idx;
  {
    std::vector<bool> in_cohort(oracles.size(), false);
    for (std::size_t k = 0; k < num_cohorts * BitSlicedOracle::kMaxLanes; ++k) {
      in_cohort[table_idx[k]] = true;
    }
    for (std::size_t i = 0; i < oracles.size(); ++i) {
      if (!in_cohort[i]) scalar_idx.push_back(i);
    }
  }

  Timer timer;
  pool_.parallel_for(
      num_cohorts + scalar_idx.size(), [&](unsigned lane, std::size_t item) {
        if (item < num_cohorts) {
          std::vector<const TableOracle*> cohort(BitSlicedOracle::kMaxLanes);
          const std::size_t base = item * BitSlicedOracle::kMaxLanes;
          for (unsigned k = 0; k < BitSlicedOracle::kMaxLanes; ++k) {
            cohort[k] =
                static_cast<const TableOracle*>(oracles[table_idx[base + k]]);
          }
          auto res = lanes_[lane]->diagnose_cohort(cohort);
          for (unsigned k = 0; k < BitSlicedOracle::kMaxLanes; ++k) {
            out.results[table_idx[base + k]] = std::move(res[k]);
          }
        } else {
          const std::size_t i = scalar_idx[item - num_cohorts];
          out.results[i] = lanes_[lane]->diagnose(*oracles[i]);
        }
      });
  out.seconds = timer.seconds();
  for (const DiagnosisResult& r : out.results) {
    out.succeeded += r.success ? 1 : 0;
    out.total_lookups += r.lookups;
  }
  return out;
}

BatchResult BatchDiagnoser::diagnose_all(
    const std::vector<Syndrome>& syndromes) {
  std::vector<TableOracle> oracles;
  oracles.reserve(syndromes.size());
  for (const Syndrome& s : syndromes) oracles.emplace_back(*graph_, s);
  std::vector<const SyndromeOracle*> ptrs;
  ptrs.reserve(oracles.size());
  for (const TableOracle& o : oracles) ptrs.push_back(&o);
  return diagnose_all(ptrs);
}

}  // namespace mmdiag
