#include "core/batch_diagnoser.hpp"

#include <stdexcept>

#include "core/certified_partition.hpp"
#include "core/cohort_planner.hpp"
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
    require_oracle_shape("BatchDiagnoser", *oracle, graph_->num_nodes(),
                         graph_->min_degree(), graph_->max_degree());
  }
  BatchResult out;
  out.results.resize(oracles.size());

  // Every TableOracle input is one run when the graph's rows fit one word;
  // the planner cuts it into bitsliced cohorts (no scalar remainder from
  // 64 inputs up), and the rest stay scalar per-item work.
  // Grouping only changes which instruction stream serves a syndrome —
  // results and look-up counts per syndrome are bit-identical, so batch
  // output still matches a sequential Diagnoser exactly.
  std::vector<std::size_t> run_of(oracles.size(), kNoRun);
  if (graph_->max_degree() <= 64) {
    for (std::size_t i = 0; i < oracles.size(); ++i) {
      if (dynamic_cast<const TableOracle*>(oracles[i]) != nullptr) {
        run_of[i] = 0;
      }
    }
  }
  const CohortPlan plan = plan_cohorts(run_of);

  Timer timer;
  pool_.parallel_for(
      plan.cohorts.size() + plan.scalar.size(),
      [&](unsigned lane, std::size_t item) {
        if (item < plan.cohorts.size()) {
          const std::vector<std::size_t>& idx = plan.cohorts[item];
          std::vector<const TableOracle*> cohort;
          cohort.reserve(idx.size());
          for (const std::size_t i : idx) {
            cohort.push_back(static_cast<const TableOracle*>(oracles[i]));
          }
          auto res = lanes_[lane]->diagnose_cohort(cohort);
          for (std::size_t k = 0; k < idx.size(); ++k) {
            out.results[idx[k]] = std::move(res[k]);
          }
        } else {
          const std::size_t i = plan.scalar[item - plan.cohorts.size()];
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
