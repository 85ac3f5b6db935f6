// DiagnosisEngine request-stream throughput: mixed-spec streams swept
// across thread counts and cache capacities, recording the calibration
// cache's amortisation (cold vs warm per-request setup cost) and its
// hit/miss/evict counters. Establishes the BENCH_engine.json baseline.
//
// Three stream shapes bracket the cache's operating envelope:
//   repeated-spec — one topology over and over: the first request pays the
//                   calibration, every later one must be near-free (the
//                   acceptance criterion: warm setup >= 10x cheaper);
//   mixed-spec    — round-robin over S specs with capacity >= S: one cold
//                   request per spec, warm steady state;
//   thrash        — round-robin over S specs with capacity S-1, LRU's
//                   adversarial case: every request misses and evicts.
//
// Every engine-served stream is checked bit-identical to a direct
// (engine-free) sequential Diagnoser before its row is recorded.
//
//   bench_engine [--smoke] [--out FILE] [--max-threads T]
//
// --smoke shrinks to tiny instances and {1,2} threads for CI; the JSON
// schema is identical to a full run.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "util/timer.hpp"

namespace mmdiag::bench {
namespace {

struct StreamConfig {
  std::string name;
  std::vector<std::string> specs;  // request i uses specs[i % specs.size()]
  std::size_t requests;
  std::size_t cache_capacity;
};

struct Stream {
  std::vector<std::string> spec_of;  // per request
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  std::vector<EngineRequest> requests;
  std::vector<DiagnosisResult> truth;  // direct sequential Diagnoser
};

/// Deterministic mixed workload over the stream's spec rotation: fault
/// counts cycle 0..delta per spec and the faulty-tester behaviour
/// alternates.
Stream make_stream(const StreamConfig& config) {
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  Stream stream;
  stream.spec_of.reserve(config.requests);
  stream.faults.reserve(config.requests);
  stream.oracles.reserve(config.requests);
  stream.requests.reserve(config.requests);
  for (std::size_t i = 0; i < config.requests; ++i) {
    const std::string& spec = config.specs[i % config.specs.size()];
    const auto& inst = instance(spec);
    const unsigned delta = diagnoser(spec).delta();
    Rng rng(0xE14E + i * 2654435761ULL);
    const std::size_t num_faults =
        (i / config.specs.size()) % (static_cast<std::size_t>(delta) + 1);
    stream.spec_of.push_back(spec);
    stream.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), num_faults, rng));
    stream.oracles.emplace_back(inst.graph, stream.faults.back(),
                                kBehaviors[i % 4], /*seed=*/i);
  }
  for (std::size_t i = 0; i < config.requests; ++i) {
    stream.requests.push_back(
        EngineRequest{stream.spec_of[i], &stream.oracles[i]});
  }
  // Direct ground truth: a per-spec Diagnoser constructed without the
  // engine, run sequentially. Engine-served results must match it bitwise.
  std::map<std::string, std::unique_ptr<Diagnoser>> direct;
  for (std::size_t i = 0; i < config.requests; ++i) {
    auto& diag = direct[stream.spec_of[i]];
    if (!diag) {
      const auto& inst = instance(stream.spec_of[i]);
      diag = std::make_unique<Diagnoser>(*inst.topo, inst.graph);
    }
    stream.truth.push_back(diag->diagnose(stream.oracles[i]));
  }
  return stream;
}

bool identical(const std::vector<DiagnosisResult>& truth,
               const std::vector<DiagnosisResult>& served) {
  if (truth.size() != served.size()) return false;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i].success != served[i].success ||
        truth[i].faults != served[i].faults ||
        truth[i].lookups != served[i].lookups ||
        truth[i].probes != served[i].probes ||
        truth[i].certified_component != served[i].certified_component ||
        truth[i].final_members != served[i].final_members ||
        truth[i].final_rounds != served[i].final_rounds ||
        truth[i].failure_reason != served[i].failure_reason) {
      return false;
    }
  }
  return true;
}

int run(bool smoke, const std::string& out_path, unsigned max_threads) {
  const std::vector<std::string> specs =
      smoke ? std::vector<std::string>{"hypercube 7", "star 5",
                                       "kary_ncube 4 4"}
            : std::vector<std::string>{"hypercube 10", "hypercube 12",
                                       "star 6",       "star 7",
                                       "kary_ncube 4 4", "kary_ncube 5 4"};
  const std::size_t repeats = smoke ? 24 : 240;
  const std::vector<StreamConfig> configs = {
      {"repeated-spec", {specs.front()}, repeats, 1},
      {"mixed-spec", specs, repeats, specs.size() + 2},
      {"thrash", specs, repeats / 2,
       std::max<std::size_t>(1, specs.size() - 1)},
  };
  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  JsonBenchReport report("bench_engine");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));

  ExperimentTable::get().init(
      "Engine calibration cache (cold vs warm setup per request)",
      {"stream", "threads", "capacity", "requests", "hit", "miss", "evict",
       "cold_ms", "warm_us", "amortize", "identical"});

  bool all_identical = true;
  for (const StreamConfig& config : configs) {
    const Stream stream = make_stream(config);
    for (const unsigned threads : thread_counts) {
      EngineOptions options;
      options.cache_capacity = config.cache_capacity;
      options.threads = threads;
      DiagnosisEngine engine(options);

      Timer timer;
      const std::vector<DiagnosisResult> served = engine.serve(stream.requests);
      const double seconds = timer.seconds();

      const bool same = identical(stream.truth, served);
      all_identical = all_identical && same;

      std::size_t cold = 0, warm = 0, succeeded = 0;
      double cold_setup = 0, warm_setup = 0, solve = 0;
      for (const DiagnosisResult& r : served) {
        (r.calibration_reused ? warm_setup : cold_setup) += r.setup_seconds;
        ++(r.calibration_reused ? warm : cold);
        solve += r.diagnose_seconds;
        succeeded += r.success ? 1 : 0;
      }
      const double cold_avg = cold ? cold_setup / static_cast<double>(cold) : 0;
      const double warm_avg = warm ? warm_setup / static_cast<double>(warm) : 0;
      const double amortization = warm_avg > 0 ? cold_avg / warm_avg : 0;
      const double rate =
          seconds > 0 ? static_cast<double>(served.size()) / seconds : 0;
      const EngineCounters counters = engine.counters();

      report.add_result({
          {"stream", JsonValue::str(config.name)},
          {"specs", JsonValue::num(config.specs.size())},
          {"requests", JsonValue::num(served.size())},
          {"threads", JsonValue::num(threads)},
          {"cache_capacity", JsonValue::num(config.cache_capacity)},
          {"cache_hits", JsonValue::num(counters.hits)},
          {"cache_misses", JsonValue::num(counters.misses)},
          {"cache_evictions", JsonValue::num(counters.evictions)},
          {"cold_requests", JsonValue::num(cold)},
          {"warm_requests", JsonValue::num(warm)},
          {"cold_setup_avg_seconds", JsonValue::num(cold_avg)},
          {"warm_setup_avg_seconds", JsonValue::num(warm_avg)},
          {"setup_amortization", JsonValue::num(amortization)},
          {"solve_seconds", JsonValue::num(solve)},
          {"seconds", JsonValue::num(seconds)},
          {"requests_per_sec", JsonValue::num(rate)},
          {"succeeded", JsonValue::num(succeeded)},
          {"identical_to_direct", JsonValue::boolean(same)},
      });
      ExperimentTable::get().add_row(
          {config.name, Table::num(std::uint64_t{threads}),
           Table::num(std::uint64_t{config.cache_capacity}),
           Table::num(std::uint64_t{served.size()}),
           Table::num(counters.hits), Table::num(counters.misses),
           Table::num(counters.evictions), Table::num(cold_avg * 1e3, 3),
           Table::num(warm_avg * 1e6, 2), Table::num(amortization, 1),
           same ? "yes" : "NO"});
    }
  }

  ExperimentTable::get().print(std::cout);
  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  if (!all_identical) {
    std::cerr << "FAIL: an engine-served stream diverged from the direct "
                 "sequential Diagnoser\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_engine.json";
  unsigned max_threads = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      max_threads = std::min(max_threads, 2u);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--max-threads" && i + 1 < argc) {
      max_threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: bench_engine [--smoke] [--out FILE] "
                   "[--max-threads T]\n";
      return 2;
    }
  }
  if (max_threads == 0) max_threads = 1;
  return mmdiag::bench::run(smoke, out_path, max_threads);
}
