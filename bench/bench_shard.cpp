// Sharded-engine benchmark: the owner/halo ShardedDiagnoser against the
// monolithic Diagnoser. Three row kinds share one schema (the `mode` field):
//
//   identity — hypercube 16..18, table mode: the sharded engine and the
//       monolith diagnose the same materialised syndromes and every row
//       asserts bit-identity — faults, failure strings, probes, rounds,
//       members AND counted look-ups; the lazy (computed-row) path is
//       cross-checked against the same results. A divergence fails the run.
//   speedup  — hypercube 18, lazy mode: S=4 against S=1 on the same
//       workload (also bit-identical), recording speedup_vs_one_shard.
//       The container CI runs on has one hardware thread, so the meta
//       field hardware_threads is what makes the ratio interpretable.
//   scale    — hypercube 21..22 (2M–4M nodes), lazy mode: rows the
//       monolithic syndrome table was never built for. The row records the
//       largest single shard's row-store bytes against the CSR bytes the
//       monolith would have had to materialise (rss_below_monolithic_csr).
//
// Rows run ascending by size because peak RSS is process-cumulative.
//
// Not a google-benchmark binary, for the same reason as bench_scale: CI
// asserts the identity fields on images without the benchmark library.
//
//   bench_shard [--smoke] [--out FILE]
//
// --smoke shrinks to the hypercube 16 identity rows for CI (seconds);
// schema is identical.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_json.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "distributed/sharded_diagnoser.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
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

constexpr FaultyBehavior kBehaviors[] = {
    FaultyBehavior::kRandom, FaultyBehavior::kAllZero, FaultyBehavior::kAllOne,
    FaultyBehavior::kAntiDiagnostic};

FaultSet make_faults(std::size_t n, unsigned delta, std::size_t i) {
  Rng rng(0x5A4D + i * 2654435761ULL);
  return FaultSet(
      n, inject_uniform(
             n, (i * 7) % (static_cast<std::size_t>(delta) + 1), rng));
}

void print_row(const std::string& spec, const std::string& mode,
               unsigned shards, double seconds, std::uint64_t lookups,
               const std::string& verdict) {
  std::cout << std::left << std::setw(15) << spec << std::setw(10) << mode
            << std::right << std::setw(7) << shards << std::setw(11)
            << std::fixed << std::setprecision(2) << seconds << std::setw(14)
            << lookups << std::setw(12) << peak_rss_kb() << std::setw(11)
            << verdict << "\n";
}

int run(bool smoke, const std::string& out_path) {
  struct IdentityRow {
    std::string spec;
    unsigned shards;
  };
  const std::vector<IdentityRow> identity_rows =
      smoke ? std::vector<IdentityRow>{{"hypercube 16", 2}, {"hypercube 16", 4}}
            : std::vector<IdentityRow>{{"hypercube 16", 2},
                                       {"hypercube 16", 4},
                                       {"hypercube 17", 4},
                                       {"hypercube 18", 4}};
  const std::size_t syndromes = 2;

  JsonBenchReport report("bench_shard");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("syndromes_per_row", JsonValue::num(syndromes));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));

  std::cout << std::left << std::setw(15) << "topology" << std::setw(10)
            << "mode" << std::right << std::setw(7) << "shards"
            << std::setw(11) << "seconds" << std::setw(14) << "lookups"
            << std::setw(12) << "rss KB" << std::setw(11) << "verdict"
            << "\n";

  bool all_identical = true;

  // ---- identity rows: table-mode shards vs the monolith -------------------
  for (const IdentityRow& row : identity_rows) {
    const std::shared_ptr<const Topology> topo =
        make_topology_from_spec(row.spec);
    const auto info = topo->info();
    const unsigned delta = topo->default_fault_bound();
    const Graph graph = topo->build_graph();

    // One certified partition, adopted by both engines, so the comparison
    // covers the run and not the calibration. validate_all=false as in
    // bench_scale (hypercube halves are isomorphic). The monolith runs its
    // final pass under kSpread too — the sharded engine rejects
    // kLeastFirst, the one rule whose scan is order-serial.
    const CertifiedPartition partition = find_certified_partition(
        *topo, graph, delta, ParentRule::kSpread, /*validate_all=*/false);
    DiagnoserOptions mono_options;
    mono_options.final_rule = ParentRule::kSpread;
    Diagnoser mono(graph, partition, mono_options);
    ShardedOptions sharded_options;
    sharded_options.shards = row.shards;
    ShardedDiagnoser sharded(topo, partition, sharded_options);

    bool identical = true;
    std::uint64_t mono_lookups = 0;
    std::uint64_t sharded_lookups = 0;
    double mono_seconds = 0;
    double sharded_seconds = 0;
    for (std::size_t i = 0; i < syndromes; ++i) {
      const FaultSet faults = make_faults(info.num_nodes, delta, i);
      const Syndrome syndrome =
          generate_syndrome(graph, faults, kBehaviors[i % 4], i);
      const TableOracle oracle(graph, syndrome);
      const Timer mono_timer;
      const DiagnosisResult mono_r = mono.diagnose(oracle);
      mono_seconds += mono_timer.seconds();
      const Timer sharded_timer;
      const DiagnosisResult sharded_r = sharded.diagnose(syndrome);
      sharded_seconds += sharded_timer.seconds();
      // The lazy (computed-row) path must land on the same bits the table
      // served — it recomputes the rows from the hidden fault set instead
      // of copying them out of the syndrome.
      const DiagnosisResult lazy_r =
          sharded.diagnose(faults, kBehaviors[i % 4], i);
      mono_lookups += mono_r.lookups;
      sharded_lookups += sharded_r.lookups;
      if (!bit_identical(mono_r, sharded_r) ||
          !bit_identical(mono_r, lazy_r)) {
        identical = false;
        std::cerr << "FAIL: " << row.spec << " S=" << row.shards
                  << " syndrome " << i
                  << " diverged from the monolithic engine\n";
      }
    }
    all_identical = all_identical && identical;

    const ShardedRunStats stats = sharded.last_stats();
    const std::uint64_t csr_bytes = graph.memory_bytes();
    const std::uint64_t rss_kb = peak_rss_kb();
    report.add_result({
        {"mode", JsonValue::str("identity")},
        {"topology", JsonValue::str(row.spec)},
        {"family", JsonValue::str(info.family)},
        {"nodes", JsonValue::num(info.num_nodes)},
        {"degree", JsonValue::num(info.degree)},
        {"delta", JsonValue::num(delta)},
        {"shards", JsonValue::num(row.shards)},
        {"syndromes", JsonValue::num(syndromes)},
        {"identical_to_monolithic", JsonValue::boolean(identical)},
        {"lookups_identical",
         JsonValue::boolean(identical && mono_lookups == sharded_lookups)},
        {"monolithic_lookups", JsonValue::num(mono_lookups)},
        {"sharded_lookups", JsonValue::num(sharded_lookups)},
        {"monolithic_seconds", JsonValue::num(mono_seconds)},
        {"sharded_seconds", JsonValue::num(sharded_seconds)},
        {"halo_blocks_exchanged", JsonValue::num(stats.halo_blocks_exchanged)},
        {"closed_form_halo", JsonValue::boolean(stats.closed_form_halo)},
        {"max_shard_store_bytes", JsonValue::num(stats.max_store_bytes)},
        {"total_store_bytes", JsonValue::num(stats.total_store_bytes)},
        {"monolithic_csr_bytes", JsonValue::num(csr_bytes)},
        {"store_below_monolithic_csr",
         JsonValue::boolean(stats.max_store_bytes < csr_bytes)},
        {"peak_rss_kb", JsonValue::num(rss_kb)},
    });
    print_row(row.spec, "identity", row.shards, sharded_seconds,
              sharded_lookups, identical ? "identical" : "DIVERGED");
  }

  // ---- speedup row: lazy S=4 against S=1 on the same workload -------------
  if (!smoke) {
    const std::string spec = "hypercube 18";
    const std::shared_ptr<const Topology> topo = make_topology_from_spec(spec);
    const auto info = topo->info();
    const unsigned delta = topo->default_fault_bound();
    const ImplicitGraph view(*topo);
    const CertifiedPartition partition = find_certified_partition(
        *topo, view, delta, ParentRule::kSpread, /*validate_all=*/false);

    double seconds_by_shards[2] = {0, 0};
    std::uint64_t lookups_by_shards[2] = {0, 0};
    bool identical = true;
    std::vector<DiagnosisResult> one_shard_results(syndromes);
    for (int pass = 0; pass < 2; ++pass) {
      ShardedOptions sharded_options;
      sharded_options.shards = pass == 0 ? 1 : 4;
      ShardedDiagnoser engine(topo, partition, sharded_options);
      const Timer timer;
      for (std::size_t i = 0; i < syndromes; ++i) {
        const FaultSet faults = make_faults(info.num_nodes, delta, i);
        const DiagnosisResult r =
            engine.diagnose(faults, kBehaviors[i % 4], i);
        lookups_by_shards[pass] += r.lookups;
        if (pass == 0) {
          one_shard_results[i] = r;
        } else if (!bit_identical(one_shard_results[i], r)) {
          identical = false;
          std::cerr << "FAIL: " << spec << " syndrome " << i
                    << " diverged between 1 and 4 shards\n";
        }
      }
      seconds_by_shards[pass] = timer.seconds();
    }
    all_identical = all_identical && identical;

    report.add_result({
        {"mode", JsonValue::str("speedup")},
        {"topology", JsonValue::str(spec)},
        {"family", JsonValue::str(info.family)},
        {"nodes", JsonValue::num(info.num_nodes)},
        {"degree", JsonValue::num(info.degree)},
        {"delta", JsonValue::num(delta)},
        {"shards", JsonValue::num(4)},
        {"syndromes", JsonValue::num(syndromes)},
        {"identical_to_one_shard", JsonValue::boolean(identical)},
        {"lookups_identical",
         JsonValue::boolean(identical &&
                            lookups_by_shards[0] == lookups_by_shards[1])},
        {"one_shard_seconds", JsonValue::num(seconds_by_shards[0])},
        {"sharded_seconds", JsonValue::num(seconds_by_shards[1])},
        {"speedup_vs_one_shard",
         JsonValue::num(seconds_by_shards[1] > 0
                            ? seconds_by_shards[0] / seconds_by_shards[1]
                            : 0.0)},
        {"hardware_threads",
         JsonValue::num(std::thread::hardware_concurrency())},
        {"peak_rss_kb", JsonValue::num(peak_rss_kb())},
    });
    print_row(spec, "speedup", 4, seconds_by_shards[1], lookups_by_shards[1],
              identical ? "identical" : "DIVERGED");
  }

  // ---- scale rows: lazy multi-million-node solves -------------------------
  if (!smoke) {
    for (const std::string spec : {"hypercube 21", "hypercube 22"}) {
      const std::shared_ptr<const Topology> topo =
          make_topology_from_spec(spec);
      const auto info = topo->info();
      const unsigned delta = topo->default_fault_bound();
      const ImplicitGraph view(*topo);
      const Timer cal_timer;
      const CertifiedPartition partition = find_certified_partition(
          *topo, view, delta, ParentRule::kSpread, /*validate_all=*/false);
      const double calibration_seconds = cal_timer.seconds();

      ShardedOptions sharded_options;
      sharded_options.shards = 8;
      ShardedDiagnoser engine(topo, partition, sharded_options);

      const FaultSet faults = make_faults(info.num_nodes, delta, 1);
      const Timer solve_timer;
      const DiagnosisResult r =
          engine.diagnose(faults, FaultyBehavior::kRandom, 1);
      const double solve_seconds = solve_timer.seconds();
      if (!r.success) {
        all_identical = false;
        std::cerr << "FAIL: " << spec << " sharded solve failed: "
                  << r.failure_reason << "\n";
      }

      const ShardedRunStats stats = engine.last_stats();
      const std::uint64_t csr_estimate = view.csr_bytes_estimate();
      report.add_result({
          {"mode", JsonValue::str("scale")},
          {"topology", JsonValue::str(spec)},
          {"family", JsonValue::str(info.family)},
          {"nodes", JsonValue::num(info.num_nodes)},
          {"degree", JsonValue::num(info.degree)},
          {"delta", JsonValue::num(delta)},
          {"shards", JsonValue::num(8)},
          {"diagnose_success", JsonValue::boolean(r.success)},
          {"faults_injected", JsonValue::num(faults.nodes().size())},
          {"lookups", JsonValue::num(r.lookups)},
          {"calibration_seconds", JsonValue::num(calibration_seconds)},
          {"solve_seconds", JsonValue::num(solve_seconds)},
          {"halo_blocks_exchanged",
           JsonValue::num(stats.halo_blocks_exchanged)},
          {"closed_form_halo", JsonValue::boolean(stats.closed_form_halo)},
          {"max_shard_store_bytes", JsonValue::num(stats.max_store_bytes)},
          {"total_store_bytes", JsonValue::num(stats.total_store_bytes)},
          {"monolithic_csr_bytes_estimate", JsonValue::num(csr_estimate)},
          {"rss_below_monolithic_csr",
           JsonValue::boolean(stats.max_store_bytes < csr_estimate)},
          {"peak_rss_kb", JsonValue::num(peak_rss_kb())},
      });
      print_row(spec, "scale", 8, solve_seconds, r.lookups,
                r.success ? "solved" : "FAILED");
    }
  }

  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  if (!all_identical) {
    std::cerr << "FAIL: the sharded engine diverged from the monolith\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_shard [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return mmdiag::bench::run(smoke, out_path);
}
