// E2 (Theorem 2): hypercube diagnosis in O(n·2^n), compared against the
// Chiang-Tan extended-star baseline (same asymptotics) and Yang's
// cycle-decomposition algorithm (the O(n²·2^n) predecessor).
//
// Expected shape (paper): ours ~ Chiang-Tan, both at least as fast as Yang;
// time/(n·2^n) roughly flat for ours across n.
#include "baselines/chiang_tan.hpp"
#include "baselines/yang_cycle.hpp"
#include "bench_util.hpp"
#include "topology/hypercube.hpp"

namespace mmdiag::bench {
namespace {

constexpr unsigned kDims[] = {7, 8, 10, 12, 14, 16};

std::string spec_for(unsigned n) { return "hypercube " + std::to_string(n); }

void report(benchmark::State& state, const std::string& algorithm, unsigned n,
            const DiagnosisResult& result, double seconds_per_op) {
  const double nodes = static_cast<double>(std::uint64_t{1} << n);
  state.counters["N"] = nodes;
  state.counters["delta"] = n;
  state.counters["lookups"] = static_cast<double>(result.lookups);
  state.counters["t_norm_ns"] = seconds_per_op * 1e9 / (n * nodes);
  ExperimentTable::get().add_row(
      {std::string(1, 'Q').append(std::to_string(n)), algorithm,
       Table::num(std::uint64_t(nodes)),
       Table::num(seconds_per_op * 1e3, 3),
       Table::num(seconds_per_op * 1e9 / (n * nodes), 3),
       Table::num(result.lookups), result.success ? "yes" : "NO"});
}

void BM_Ours(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const auto& inst = instance(spec_for(n));
  Diagnoser& diag = diagnoser(spec_for(n));
  const FaultSet faults = make_faults(spec_for(n), n);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, n);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag.diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  report(state, "set_builder (ours)", n, result, spo);
}

void BM_ChiangTan(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const auto& inst = instance(spec_for(n));
  const Hypercube topo(n);
  const auto ct = ChiangTanDiagnoser::for_hypercube(topo, inst.graph);
  const FaultSet faults = make_faults(spec_for(n), n);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, n);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = ct.diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  report(state, "chiang_tan", n, result, spo);
}

void BM_Yang(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const auto& inst = instance(spec_for(n));
  const Hypercube topo(n);
  YangCycleDiagnoser yang(topo, inst.graph);
  const FaultSet faults = make_faults(spec_for(n), n);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, n);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = yang.diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  report(state, "yang_cycles", n, result, spo);
}

void register_all() {
  ExperimentTable::get().init(
      "E2 / Theorem 2 — hypercube diagnosis, |F| = n, random faulty testers",
      {"instance", "algorithm", "N", "time_ms", "ns_per_nN", "lookups",
       "success"});
  for (const unsigned n : kDims) {
    benchmark::RegisterBenchmark(("ours/Q" + std::to_string(n)).c_str(),
                                 BM_Ours)
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("chiang_tan/Q" + std::to_string(n)).c_str(),
                                 BM_ChiangTan)
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("yang/Q" + std::to_string(n)).c_str(),
                                 BM_Yang)
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
