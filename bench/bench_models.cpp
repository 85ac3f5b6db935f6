// Per-model throughput: the same instance diagnosed under MM*, PMC and
// BGM global solves, plus the BGM local-diagnosis fast path, one JSON row
// each. The point of the row set is the last column pair: a local request
// answers from the node's 2-ball (per-request look-ups bounded by
// 2·d(u) + Σ_{v ∈ N(u)} (d(v) − 1) — asserted per request, a violation
// fails the run) and lands orders of magnitude above the global solves in
// requests/sec, which is why the engine serves it ahead of full solves.
//
// Not a google-benchmark binary, for the same reason as bench_scale: CI
// asserts the bound fields on images without the benchmark library.
//
//   bench_models [--smoke] [--out FILE]
//
// --smoke shrinks to hypercube 8 for CI (seconds); schema is identical.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "core/directed_diagnoser.hpp"
#include "mm/behavior.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "topology/registry.hpp"
#include "util/enum_names.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mmdiag::bench {
namespace {

constexpr FaultyBehavior kBehaviors[] = {
    FaultyBehavior::kRandom, FaultyBehavior::kAllZero, FaultyBehavior::kAllOne,
    FaultyBehavior::kAntiDiagnostic};

/// The 2-ball arc count of u — the documented per-request ceiling of
/// bgm_local_diagnose.
std::uint64_t local_lookup_bound(const Graph& g, Node u) {
  std::uint64_t bound = 2ULL * g.degree(u);
  for (const Node v : g.neighbors(u)) bound += g.degree(v) - 1;
  return bound;
}

struct RowStats {
  double seconds = 0;
  double ops_per_sec = 0;
  double lookups_per_op = 0;
  std::size_t succeeded = 0;
};

void print_row(const std::string& spec, const std::string& model,
               const std::string& mode, std::size_t ops, const RowStats& s) {
  std::cout << std::left << std::setw(15) << spec << std::setw(9) << model
            << std::setw(8) << mode << std::right << std::setw(9) << ops
            << std::setw(12) << std::fixed << std::setprecision(1)
            << s.ops_per_sec << std::setw(14)
            << static_cast<std::uint64_t>(s.lookups_per_op) << std::setw(11)
            << s.succeeded << "\n";
}

int run(bool smoke, const std::string& out_path) {
  const std::vector<std::string> specs =
      smoke ? std::vector<std::string>{"hypercube 8"}
            : std::vector<std::string>{"hypercube 8", "hypercube 10",
                                       "hypercube 12"};
  const std::size_t syndromes = smoke ? 4 : 16;

  JsonBenchReport report("bench_models");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("syndromes_per_row", JsonValue::num(syndromes));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));

  std::cout << std::left << std::setw(15) << "topology" << std::setw(9)
            << "model" << std::setw(8) << "mode" << std::right << std::setw(9)
            << "ops" << std::setw(12) << "ops/s" << std::setw(14)
            << "lookups/op" << std::setw(11) << "succeeded"
            << "\n";

  bool bound_ok = true;
  for (const std::string& spec : specs) {
    const auto topo = make_topology_from_spec(spec);
    const auto info = topo->info();
    const unsigned delta = topo->default_fault_bound();
    const Graph graph = topo->build_graph();

    // One deterministic workload shared by every model row: fault counts
    // cycle 0..delta, faulty behaviours rotate per syndrome.
    std::vector<FaultSet> faults;
    faults.reserve(syndromes);
    for (std::size_t i = 0; i < syndromes; ++i) {
      Rng rng(0xB0DE15 + i * 2654435761ULL);
      faults.emplace_back(
          graph.num_nodes(),
          inject_uniform(graph.num_nodes(),
                         (i * 7) % (static_cast<std::size_t>(delta) + 1),
                         rng));
    }

    auto add_global_row = [&](DiagnosisModel model, const RowStats& s) {
      report.add_result({
          {"topology", JsonValue::str(spec)},
          {"family", JsonValue::str(info.family)},
          {"nodes", JsonValue::num(info.num_nodes)},
          {"degree", JsonValue::num(info.degree)},
          {"delta", JsonValue::num(delta)},
          {"model", JsonValue::str(diagnosis_model_to_string(model))},
          {"mode", JsonValue::str("global")},
          {"syndromes", JsonValue::num(syndromes)},
          {"succeeded", JsonValue::num(s.succeeded)},
          {"seconds", JsonValue::num(s.seconds)},
          {"syn_per_sec", JsonValue::num(s.ops_per_sec)},
          {"lookups_per_syndrome", JsonValue::num(s.lookups_per_op)},
      });
      print_row(spec, diagnosis_model_to_string(model), "global", syndromes,
                s);
    };

    // MM* global: the comparator-matrix driver over its certified partition.
    {
      const CertifiedPartition partition = find_certified_partition(
          *topo, graph, delta, ParentRule::kSpread, /*validate_all=*/false);
      Diagnoser diagnoser(graph, partition, DiagnoserOptions{});
      RowStats s;
      std::uint64_t lookups = 0;
      const Timer timer;
      for (std::size_t i = 0; i < syndromes; ++i) {
        const LazyOracle oracle(graph, faults[i], kBehaviors[i % 4], i);
        const DiagnosisResult r = diagnoser.diagnose(oracle);
        lookups += r.lookups;
        s.succeeded += r.success ? 1 : 0;
      }
      s.seconds = timer.seconds();
      s.ops_per_sec = s.seconds > 0
                          ? static_cast<double>(syndromes) / s.seconds
                          : 0;
      s.lookups_per_op = static_cast<double>(lookups) /
                         static_cast<double>(syndromes);
      add_global_row(DiagnosisModel::kMMStar, s);
    }

    // PMC and BGM global: the directed deduction-first driver.
    double bgm_global_syn_per_sec = 0;
    for (const DiagnosisModel model :
         {DiagnosisModel::kPMC, DiagnosisModel::kBGM}) {
      DirectedDiagnoser diagnoser(graph, delta);
      RowStats s;
      std::uint64_t lookups = 0;
      const Timer timer;
      for (std::size_t i = 0; i < syndromes; ++i) {
        const DirectedLazyOracle oracle(graph, faults[i], model,
                                        kBehaviors[i % 4], i);
        const DiagnosisResult r = diagnoser.diagnose(oracle);
        lookups += r.lookups;
        s.succeeded += r.success ? 1 : 0;
      }
      s.seconds = timer.seconds();
      s.ops_per_sec = s.seconds > 0
                          ? static_cast<double>(syndromes) / s.seconds
                          : 0;
      s.lookups_per_op = static_cast<double>(lookups) /
                         static_cast<double>(syndromes);
      if (model == DiagnosisModel::kBGM) bgm_global_syn_per_sec = s.ops_per_sec;
      add_global_row(model, s);
    }

    // BGM local diagnosis: one request per node per syndrome, every request
    // checked against the 2-ball look-up ceiling.
    {
      const std::size_t requests = syndromes * info.num_nodes;
      RowStats s;
      std::uint64_t lookups = 0;
      std::uint64_t max_request_lookups = 0;
      std::size_t definite = 0;
      bool within = true;
      const Timer timer;
      for (std::size_t i = 0; i < syndromes; ++i) {
        const DirectedLazyOracle oracle(graph, faults[i],
                                        DiagnosisModel::kBGM,
                                        kBehaviors[i % 4], i);
        for (Node u = 0; u < graph.num_nodes(); ++u) {
          const LocalDiagnosisResult r = bgm_local_diagnose(graph, oracle, u);
          lookups += r.lookups;
          if (r.lookups > max_request_lookups) max_request_lookups = r.lookups;
          if (r.lookups > local_lookup_bound(graph, u)) within = false;
          definite += r.status != LocalDiagnosisStatus::kUnknown ? 1 : 0;
        }
      }
      s.seconds = timer.seconds();
      s.ops_per_sec = s.seconds > 0
                          ? static_cast<double>(requests) / s.seconds
                          : 0;
      s.lookups_per_op = static_cast<double>(lookups) /
                         static_cast<double>(requests);
      s.succeeded = definite;
      if (!within) {
        std::cerr << "FAIL: " << spec
                  << " local request exceeded its 2-ball look-up bound\n";
        bound_ok = false;
      }
      // Every node has the same degree here, so one bound covers all rows.
      const std::uint64_t bound = local_lookup_bound(graph, 0);
      report.add_result({
          {"topology", JsonValue::str(spec)},
          {"family", JsonValue::str(info.family)},
          {"nodes", JsonValue::num(info.num_nodes)},
          {"degree", JsonValue::num(info.degree)},
          {"delta", JsonValue::num(delta)},
          {"model", JsonValue::str(
               diagnosis_model_to_string(DiagnosisModel::kBGM))},
          {"mode", JsonValue::str("local")},
          {"requests", JsonValue::num(requests)},
          {"definite", JsonValue::num(definite)},
          {"seconds", JsonValue::num(s.seconds)},
          {"requests_per_sec", JsonValue::num(s.ops_per_sec)},
          {"lookups_per_request", JsonValue::num(s.lookups_per_op)},
          {"max_request_lookups", JsonValue::num(max_request_lookups)},
          {"lookup_bound", JsonValue::num(bound)},
          {"within_lookup_bound", JsonValue::boolean(within)},
          {"speedup_vs_global_solve",
           JsonValue::num(bgm_global_syn_per_sec > 0
                              ? s.ops_per_sec / bgm_global_syn_per_sec
                              : 0.0)},
      });
      print_row(spec, "bgm", "local", requests, s);
    }
  }

  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  if (!bound_ok) {
    std::cerr << "FAIL: a local request exceeded its look-up bound\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_models.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_models [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return mmdiag::bench::run(smoke, out_path);
}
