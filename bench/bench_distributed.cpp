// E9 (§6 further research): distributed execution cost of the diagnosis.
// The paper reports (without numbers) that a distributed Set_Builder
// outperforms a distributed Chiang-Tan in hypercubes. Under our synchronous
// cost model (see src/core/distributed.hpp) the shape is: Set_Builder moves
// fewer messages and does far less per-node work; Chiang-Tan finishes in a
// constant number of (pipelined) rounds while Set_Builder needs
// diameter-order rounds.
#include "core/distributed.hpp"

#include "distributed/protocol.hpp"

#include "bench_util.hpp"
#include "topology/hypercube.hpp"

namespace mmdiag::bench {
namespace {

constexpr unsigned kDims[] = {9, 11, 13};

void BM_DistOurs(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const std::string spec = "hypercube " + std::to_string(n);
  const auto& inst = instance(spec);
  const FaultSet faults = make_faults(spec, n);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 43);
  DistributedCost cost;
  for (auto _ : state) {
    cost = distributed_set_builder_cost(*inst.topo, inst.graph, oracle);
    benchmark::DoNotOptimize(cost);
  }
  state.counters["rounds"] = static_cast<double>(cost.rounds);
  state.counters["messages"] = static_cast<double>(cost.messages);
  ExperimentTable::get().add_row(
      {inst.topo->info().name, "set_builder (ours)",
       Table::num(inst.graph.num_nodes()), Table::num(cost.rounds),
       Table::num(cost.messages), Table::num(cost.local_work),
       cost.success ? "yes" : "NO"});
}

// The five-stage protocol executed on the real message-passing simulator
// (src/distributed) — not the analytic cost model.
void BM_DistProtocol(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const std::string spec = "hypercube " + std::to_string(n);
  const auto& inst = instance(spec);
  const FaultSet faults = make_faults(spec, n);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 43);
  DistributedRunStats stats;
  for (auto _ : state) {
    stats = run_distributed_diagnosis(*inst.topo, inst.graph, oracle);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["messages"] = static_cast<double>(stats.messages);
  ExperimentTable::get().add_row(
      {inst.topo->info().name, "set_builder (simulated)",
       Table::num(inst.graph.num_nodes()), Table::num(stats.rounds),
       Table::num(stats.messages), Table::num(stats.lookups),
       stats.success ? "yes" : "NO"});
}

void BM_DistChiangTan(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const std::string spec = "hypercube " + std::to_string(n);
  const auto& inst = instance(spec);
  const Hypercube topo(n);
  const FaultSet faults = make_faults(spec, n);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 43);
  DistributedCost cost;
  for (auto _ : state) {
    cost = distributed_chiang_tan_cost(topo, inst.graph, oracle);
    benchmark::DoNotOptimize(cost);
  }
  state.counters["rounds"] = static_cast<double>(cost.rounds);
  state.counters["messages"] = static_cast<double>(cost.messages);
  ExperimentTable::get().add_row(
      {inst.topo->info().name, "chiang_tan",
       Table::num(inst.graph.num_nodes()), Table::num(cost.rounds),
       Table::num(cost.messages), Table::num(cost.local_work),
       cost.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E9 / §6 — distributed diagnosis on hypercubes, |F| = n (analytic model "
      "+ real simulator)",
      {"instance", "algorithm", "N", "rounds", "messages", "local_work",
       "success"});
  for (const unsigned n : kDims) {
    benchmark::RegisterBenchmark(
        ("dist_ours/Q" + std::to_string(n)).c_str(), BM_DistOurs)
        ->Arg(n)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("dist_protocol/Q" + std::to_string(n)).c_str(), BM_DistProtocol)
        ->Arg(n)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("dist_chiang_tan/Q" + std::to_string(n)).c_str(), BM_DistChiangTan)
        ->Arg(n)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
