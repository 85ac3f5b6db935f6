// Scale benchmark: diagnosis far past where a materialised CSR graph is
// comfortable, driven entirely through ImplicitGraph's closed-form
// adjacency and the lazy oracle (no syndrome table either — tests are
// computed on consultation). The point of the row set is the memory
// column: hypercube 20 (2^20 nodes, ~21M directed edges) diagnoses in a
// peak RSS dominated by the solver's O(N)-bit scratch, not by edges.
//
// Where the CSR fits in memory (n <= 18 here), the same workload also runs
// through the materialised graph and every row asserts bit-identity —
// faults, failure strings, probes AND look-up counts — between the two
// views; a divergence fails the run. Larger rows carry csr_checked=false
// and report the estimated CSR bytes they never allocated.
//
// Not a google-benchmark binary: CI asserts the equivalence fields on
// images without the benchmark library.
//
//   bench_scale [--smoke] [--out FILE]
//
// --smoke shrinks to hypercube 16 for CI (seconds); schema is identical.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_json.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "topology/registry.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mmdiag::bench {
namespace {

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // kilobytes
#endif
#else
  return 0;
#endif
}

bool bit_identical(const DiagnosisResult& a, const DiagnosisResult& b) {
  return a.success == b.success && a.faults == b.faults &&
         a.failure_reason == b.failure_reason && a.lookups == b.lookups &&
         a.probes == b.probes &&
         a.certified_component == b.certified_component &&
         a.final_members == b.final_members &&
         a.final_rounds == b.final_rounds;
}

struct ScaleRow {
  std::string spec;
  bool csr_check = false;  // also run the materialised graph and compare
};

int run(bool smoke, const std::string& out_path) {
  // Ascending so the peak-RSS column of each row is not inflated by a
  // bigger instance that ran before it. The CSR cross-check is capped at
  // n = 18 (~40 MB of adjacency) to keep the run minutes, not hours.
  const std::vector<ScaleRow> rows =
      smoke ? std::vector<ScaleRow>{{"hypercube 16", true}}
            : std::vector<ScaleRow>{{"hypercube 16", true},
                                    {"hypercube 17", true},
                                    {"hypercube 18", true},
                                    {"hypercube 19", false},
                                    {"hypercube 20", false}};
  const std::size_t syndromes = smoke ? 2 : 4;

  JsonBenchReport report("bench_scale");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("syndromes_per_row", JsonValue::num(syndromes));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));

  std::cout << std::left << std::setw(15) << "topology" << std::right
            << std::setw(10) << "nodes" << std::setw(7) << "delta"
            << std::setw(10) << "syn/s" << std::setw(14) << "lookups/syn"
            << std::setw(12) << "impl bytes" << std::setw(14) << "csr bytes"
            << std::setw(10) << "rss KB" << std::setw(9) << "csr-ok"
            << "\n";

  bool all_identical = true;
  for (const ScaleRow& row : rows) {
    const auto topo = make_topology_from_spec(row.spec);
    const auto info = topo->info();
    const unsigned delta = topo->default_fault_bound();
    const ImplicitGraph view(*topo);

    // Calibration through the implicit view: the certification walk runs
    // without a single edge being materialised. validate_all=false on BOTH
    // sides (hypercube halves are isomorphic), so the look-up accounting
    // below is comparable between the views.
    const Timer cal_timer;
    const CertifiedPartition partition = find_certified_partition(
        *topo, view, delta, ParentRule::kSpread, /*validate_all=*/false);
    const double calibration_seconds = cal_timer.seconds();

    Diagnoser diagnoser(view, partition, DiagnoserOptions{});

    // Deterministic workload: fault counts cycle 0..delta, mixed faulty
    // behaviours, one lazy oracle per syndrome on each side.
    constexpr FaultyBehavior kBehaviors[] = {
        FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
        FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
    std::vector<FaultSet> faults;
    faults.reserve(syndromes);
    for (std::size_t i = 0; i < syndromes; ++i) {
      Rng rng(0x407947 + i * 2654435761ULL);
      faults.emplace_back(
          view.num_nodes(),
          inject_uniform(view.num_nodes(),
                         (i * 7) % (static_cast<std::size_t>(delta) + 1),
                         rng));
    }

    std::vector<DiagnosisResult> implicit_results(syndromes);
    const Timer solve_timer;
    for (std::size_t i = 0; i < syndromes; ++i) {
      const ImplicitLazyOracle oracle(view, faults[i], kBehaviors[i % 4], i);
      implicit_results[i] = diagnoser.diagnose(oracle);
    }
    const double implicit_seconds = solve_timer.seconds();

    std::uint64_t total_lookups = 0;
    std::size_t succeeded = 0;
    for (const DiagnosisResult& r : implicit_results) {
      total_lookups += r.lookups;
      succeeded += r.success ? 1 : 0;
    }

    bool identical = true;
    std::uint64_t csr_bytes = view.csr_bytes_estimate();
    if (row.csr_check) {
      const Graph graph = topo->build_graph();
      csr_bytes = graph.memory_bytes();
      const CertifiedPartition csr_partition = find_certified_partition(
          *topo, graph, delta, ParentRule::kSpread, /*validate_all=*/false);
      Diagnoser csr_diagnoser(graph, csr_partition, DiagnoserOptions{});
      for (std::size_t i = 0; i < syndromes; ++i) {
        const LazyOracle oracle(graph, faults[i], kBehaviors[i % 4], i);
        if (!bit_identical(csr_diagnoser.diagnose(oracle),
                           implicit_results[i])) {
          identical = false;
          std::cerr << "FAIL: " << row.spec << " syndrome " << i
                    << " diverged between the implicit and CSR views\n";
        }
      }
      if (csr_partition.calibration_lookups != partition.calibration_lookups) {
        identical = false;
        std::cerr << "FAIL: " << row.spec
                  << " calibration look-ups diverged between the views\n";
      }
      all_identical = all_identical && identical;
    }

    const double syn_per_sec =
        implicit_seconds > 0
            ? static_cast<double>(syndromes) / implicit_seconds
            : 0;
    const double lookups_per_syndrome =
        static_cast<double>(total_lookups) / static_cast<double>(syndromes);
    const std::uint64_t rss_kb = peak_rss_kb();

    report.add_result({
        {"topology", JsonValue::str(row.spec)},
        {"family", JsonValue::str(info.family)},
        {"nodes", JsonValue::num(info.num_nodes)},
        {"degree", JsonValue::num(info.degree)},
        {"delta", JsonValue::num(delta)},
        {"syndromes", JsonValue::num(syndromes)},
        {"succeeded", JsonValue::num(succeeded)},
        {"calibration_seconds", JsonValue::num(calibration_seconds)},
        {"implicit_seconds", JsonValue::num(implicit_seconds)},
        {"implicit_syn_per_sec", JsonValue::num(syn_per_sec)},
        {"lookups_per_syndrome", JsonValue::num(lookups_per_syndrome)},
        {"implicit_bytes", JsonValue::num(view.memory_bytes())},
        {"csr_bytes", JsonValue::num(csr_bytes)},
        {"csr_bytes_is_estimate", JsonValue::boolean(!row.csr_check)},
        {"peak_rss_kb", JsonValue::num(rss_kb)},
        {"csr_checked", JsonValue::boolean(row.csr_check)},
        {"identical_to_csr", JsonValue::boolean(row.csr_check && identical)},
    });

    std::cout << std::left << std::setw(15) << row.spec << std::right
              << std::setw(10) << info.num_nodes << std::setw(7) << delta
              << std::setw(10) << std::fixed << std::setprecision(2)
              << syn_per_sec << std::setw(14)
              << static_cast<std::uint64_t>(lookups_per_syndrome)
              << std::setw(12) << view.memory_bytes() << std::setw(14)
              << csr_bytes << std::setw(10) << rss_kb << std::setw(9)
              << (row.csr_check ? (identical ? "yes" : "NO") : "-") << "\n";
  }

  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  if (!all_identical) {
    std::cerr << "FAIL: the implicit view diverged from the CSR view\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_scale [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return mmdiag::bench::run(smoke, out_path);
}
