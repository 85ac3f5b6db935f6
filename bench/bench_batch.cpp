// Batch-diagnosis throughput: many syndromes over one shared topology,
// swept across thread counts and three network families. Establishes the
// BENCH_batch.json baseline every later scaling PR is judged against.
//
// Not a google-benchmark binary: the measured unit is a whole batch (the
// production shape — BatchDiagnoser amortises one certified partition over
// the lot), so the sweep drives BatchDiagnoser directly and reports
// syndromes/second per (topology, threads) plus the speedup against the
// same batch at one thread. Every threaded run is checked bit-identical to
// the sequential Diagnoser before its row is recorded.
//
//   bench_batch [--smoke] [--out FILE] [--max-threads T]
//
// --smoke shrinks to tiny instances and {1,2} threads for CI (single
// iteration, a few seconds); the JSON schema is identical to a full run.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_diagnoser.hpp"
#include "engine/calibration.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/syndrome.hpp"
#include "util/timer.hpp"

namespace mmdiag::bench {
namespace {

struct SweepConfig {
  std::string spec;
  std::size_t syndromes;
};

constexpr FaultyBehavior kBehaviors[] = {
    FaultyBehavior::kRandom, FaultyBehavior::kAllZero, FaultyBehavior::kAllOne,
    FaultyBehavior::kAntiDiagnostic};

struct Batch {
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

/// Deterministic mixed workload: fault counts cycle over 0..delta and the
/// faulty-tester behaviour alternates, so the batch exercises every driver
/// phase (instant certification, deep probing, failure-free boundaries).
Batch make_batch(const std::string& spec, std::size_t count, unsigned delta) {
  const auto& inst = instance(spec);
  Batch batch;
  batch.faults.reserve(count);
  batch.oracles.reserve(count);
  batch.ptrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(0xBA7C4 + i * 1315423911ULL);
    const std::size_t num_faults = i % (static_cast<std::size_t>(delta) + 1);
    batch.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), num_faults, rng));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.oracles.emplace_back(inst.graph, batch.faults[i],
                               kBehaviors[i % 4], /*seed=*/i);
  }
  for (const LazyOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

struct TableBatch {
  std::vector<Syndrome> syndromes;
  std::vector<TableOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

/// The same deterministic workload materialised as syndrome tables — the
/// shape the bitsliced cohort path consumes (a LazyOracle has no rows to
/// transpose).
TableBatch make_table_batch(const std::string& spec, std::size_t count,
                            unsigned delta) {
  const auto& inst = instance(spec);
  const Batch shape = make_batch(spec, count, delta);
  TableBatch batch;
  batch.syndromes.reserve(count);
  batch.oracles.reserve(count);
  batch.ptrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.syndromes.push_back(generate_syndrome(inst.graph, shape.faults[i],
                                                kBehaviors[i % 4], /*seed=*/i));
  }
  for (const Syndrome& s : batch.syndromes) {
    batch.oracles.emplace_back(inst.graph, s);
  }
  for (const TableOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

bool identical(const std::vector<DiagnosisResult>& a,
               const std::vector<DiagnosisResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].success != b[i].success || a[i].faults != b[i].faults ||
        a[i].lookups != b[i].lookups) {
      return false;
    }
  }
  return true;
}

int run(bool smoke, const std::string& out_path, unsigned max_threads) {
  const std::vector<SweepConfig> configs =
      smoke ? std::vector<SweepConfig>{{"hypercube 7", 8},
                                       {"star 5", 8},
                                       {"kary_ncube 4 4", 8}}
            : std::vector<SweepConfig>{{"hypercube 10", 1000},
                                       {"hypercube 12", 400},
                                       {"star 6", 600},
                                       {"star 7", 200},
                                       {"kary_ncube 4 4", 800},
                                       {"kary_ncube 5 4", 600}};
  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  JsonBenchReport report("bench_batch");
  report.set_meta("smoke", JsonValue::boolean(smoke));
  report.set_meta("hardware_threads",
                  JsonValue::num(std::thread::hardware_concurrency()));

  ExperimentTable::get().init(
      "Batch diagnosis throughput (BatchDiagnoser vs sequential Diagnoser)",
      {"topology", "threads", "syndromes", "syn_per_sec", "speedup_vs_1t",
       "lookups", "identical"});

  bool all_identical = true;
  for (const SweepConfig& config : configs) {
    const auto& inst = instance(config.spec);
    Diagnoser& seq = diagnoser(config.spec);
    const Batch batch = make_batch(config.spec, config.syndromes, seq.delta());

    // Sequential ground truth (also the conventional-deployment baseline:
    // one Diagnoser, one thread, no pool overhead).
    std::vector<DiagnosisResult> truth(batch.ptrs.size());
    Timer seq_timer;
    for (std::size_t i = 0; i < batch.ptrs.size(); ++i) {
      truth[i] = seq.diagnose(*batch.ptrs[i]);
    }
    const double seq_seconds = seq_timer.seconds();

    double one_thread_rate = 0;
    for (const unsigned threads : thread_counts) {
      // Engine-routed: the batch engine adopts the same cached calibration
      // the sequential baseline runs on.
      const auto batch_engine =
          engine().make_batch_diagnoser(config.spec, threads);
      const BatchResult result = batch_engine->diagnose_all(batch.ptrs);

      const bool same = identical(truth, result.results);
      all_identical = all_identical && same;
      const double rate =
          result.seconds > 0
              ? static_cast<double>(result.results.size()) / result.seconds
              : 0;
      if (threads == 1) one_thread_rate = rate;
      const double speedup = one_thread_rate > 0 ? rate / one_thread_rate : 0;

      report.add_result({
          {"topology", JsonValue::str(config.spec)},
          {"family", JsonValue::str(inst.topo->info().family)},
          {"nodes", JsonValue::num(inst.graph.num_nodes())},
          {"delta", JsonValue::num(batch_engine->delta())},
          {"syndromes", JsonValue::num(result.results.size())},
          {"threads", JsonValue::num(threads)},
          {"seconds", JsonValue::num(result.seconds)},
          {"syndromes_per_sec", JsonValue::num(rate)},
          {"sequential_seconds", JsonValue::num(seq_seconds)},
          {"total_lookups", JsonValue::num(result.total_lookups)},
          {"succeeded", JsonValue::num(result.succeeded)},
          {"speedup_vs_1t", JsonValue::num(speedup)},
          {"identical_to_sequential", JsonValue::boolean(same)},
      });
      ExperimentTable::get().add_row(
          {config.spec, Table::num(std::uint64_t{threads}),
           Table::num(std::uint64_t{result.results.size()}),
           Table::num(rate, 1), Table::num(speedup, 2),
           Table::num(result.total_lookups), same ? "yes" : "NO"});
    }

    // Bitsliced cohort solve vs the scalar path: the identical workload
    // materialised as TableOracles, one thread each so the ratio isolates
    // the kernel (no pool effects). The scalar side is a one-lane
    // Diagnoser::diagnose loop over the same oracles. The syndrome count is
    // rounded up to a multiple of 64, and floored at 128, so the planner
    // cuts the batch into full 64-wide cohorts even under --smoke.
    {
      constexpr std::size_t kLanes = BitSlicedOracle::kMaxLanes;
      const std::size_t count = std::max<std::size_t>(
          (config.syndromes + kLanes - 1) / kLanes * kLanes, 2 * kLanes);
      const TableBatch tbatch =
          make_table_batch(config.spec, count, seq.delta());
      const auto cal = engine().calibration(config.spec);
      Diagnoser scalar(graph_handle(cal), cal->partition);
      std::vector<DiagnosisResult> scalar_results(count);
      Timer scalar_timer;
      for (std::size_t i = 0; i < count; ++i) {
        scalar_results[i] = scalar.diagnose(*tbatch.ptrs[i]);
      }
      const double scalar_seconds = scalar_timer.seconds();

      BatchOptions opts;
      opts.threads = 1;
      BatchDiagnoser sliced_batch(graph_handle(cal), cal->partition, opts);
      const BatchResult sliced_res = sliced_batch.diagnose_all(tbatch.ptrs);
      const bool same = identical(scalar_results, sliced_res.results);
      all_identical = all_identical && same;
      const double scalar_rate =
          scalar_seconds > 0 ? static_cast<double>(count) / scalar_seconds
                             : 0;
      const double sliced_rate =
          sliced_res.seconds > 0 ? static_cast<double>(count) /
                                       sliced_res.seconds
                                 : 0;
      const double ratio = scalar_rate > 0 ? sliced_rate / scalar_rate : 0;

      report.add_result({
          {"topology", JsonValue::str(config.spec)},
          {"family", JsonValue::str(inst.topo->info().family)},
          {"nodes", JsonValue::num(inst.graph.num_nodes())},
          {"delta", JsonValue::num(seq.delta())},
          {"mode", JsonValue::str("sliced_vs_scalar")},
          {"syndromes", JsonValue::num(count)},
          {"threads", JsonValue::num(1)},
          {"cohort_width", JsonValue::num(BitSlicedOracle::kMaxLanes)},
          {"scalar_seconds", JsonValue::num(scalar_seconds)},
          {"sliced_seconds", JsonValue::num(sliced_res.seconds)},
          {"scalar_syndromes_per_sec", JsonValue::num(scalar_rate)},
          {"syndromes_per_sec", JsonValue::num(sliced_rate)},
          {"sliced_vs_scalar", JsonValue::num(ratio)},
          {"total_lookups", JsonValue::num(sliced_res.total_lookups)},
          {"identical_to_sequential", JsonValue::boolean(same)},
      });
      ExperimentTable::get().add_row(
          {config.spec + " [sliced]", Table::num(std::uint64_t{1}),
           Table::num(std::uint64_t{count}), Table::num(sliced_rate, 1),
           Table::num(ratio, 2), Table::num(sliced_res.total_lookups),
           same ? "yes" : "NO"});
    }
  }

  ExperimentTable::get().print(std::cout);
  if (!report.write_file(out_path)) return 1;
  std::cout << "\nwrote " << out_path << " (" << report.num_results()
            << " records)\n";
  if (!all_identical) {
    std::cerr << "FAIL: a threaded batch diverged from the sequential "
                 "Diagnoser\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mmdiag::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_batch.json";
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
      std::cerr << "usage: bench_batch [--smoke] [--out FILE] "
                   "[--max-threads T]\n";
      return 2;
    }
  }
  if (max_threads == 0) max_threads = 1;
  return mmdiag::bench::run(smoke, out_path, max_threads);
}
