// mmdiag_cli — command-line front end over the syndrome file format.
//
//   mmdiag_cli generate <spec...> --faults k [--seed s] [--model m]
//              [--behavior b] -o F
//       Simulate a self-test sweep of the given topology with k random
//       faults and write the syndrome to file F (ground truth goes to
//       F.truth). models: mm-star (default, comparator matrix) | pmc |
//       bgm (directed per-arc outcomes). behaviours: random | all-zero |
//       all-one | anti.
//
//   mmdiag_cli diagnose <file> [--verify] [--model m] [--local NODE]
//       Load a syndrome file (its model header picks the solver), run the
//       diagnosis through the DiagnosisEngine, print the fault ids and the
//       setup/solve split (and check full-syndrome consistency with
//       --verify, MM* only). --model asserts the file's model. --local
//       answers one node's status via the BGM neighbourhood-read fast
//       path instead of a global solve.
//
//   mmdiag_cli diagnose --batch <dir> [--threads N]
//       Serve every syndrome file in <dir> (anything not hidden and not
//       ending in .truth) exactly as `serve --requests` serves a list, over
//       N lanes with room in the cache for every file's calibration.
//
//       Both forms reject an unknown option, a flag missing its value, a
//       second syndrome file, and an option the chosen form does not take
//       (--threads without --batch; a file, --verify, --model or --local
//       with it).
//
//   mmdiag_cli serve --requests <file> [--threads N] [--cache-capacity C]
//       Mixed-spec request-stream mode: <file> lists one syndrome-file
//       path per line ('#' comments allowed; relative paths resolve
//       against the list's directory). Every request flows through one
//       DiagnosisEngine::serve call, whose LRU calibration cache owns the
//       per-topology setup, so repeated specs pay it once, and whose
//       bitsliced cohorts take every run of 64 or more files of one
//       topology; per-request cold/warm setup cost and cache counters are
//       reported. Syndrome files address rows through CSR adjacency, so
//       both file modes calibrate the CSR view.
//
//   mmdiag_cli info <spec...> [--rule R] [--memory]
//       Print the topology's constants, the diagnosis models it can be
//       served under (with each model's solver and oracle family), and its
//       certified partition under probe rule R (least-first | spread |
//       least-sync | hash-spread). --memory adds the CSR footprint
//       (estimated, never built, when the instance resolves to the
//       implicit view) against ImplicitGraph's O(1) bytes.
//
//   mmdiag_cli fuzz [--cases N] [--seed S] [--model M] [--out-dir DIR] ...
//   mmdiag_cli fuzz --replay FILE
//       Differentially fuzz the per-model drivers against the per-model
//       exact solvers over the registered topology catalog (cases rotate
//       over mm-star/pmc/bgm; --model restricts to one); divergences are
//       minimized and written as replayable .repro files. --replay
//       re-executes one repro file.
//
//   mmdiag_cli churn --stream FILE [--table-oracle]
//       Replay a churn stream (remove/repair/diagnose interleavings, see
//       src/churn/churn_stream.hpp for the format) through the churn
//       harness: every warm incremental answer is differentially checked
//       against cold full recalibration; divergences exit 1.
//
//   mmdiag_cli churn <spec...> [--events N] [--seed S] [--delta D]
//              [--out FILE]
//       Deterministically generate a hostile churn stream for the spec and
//       write it to FILE (stdout when omitted).
//
// Exit status: 0 on success, 1 on diagnosis failure / fuzz divergence,
// 2 on usage or I/O errors.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "churn/churn_stream.hpp"
#include "churn/harness.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "core/verifier.hpp"
#include "engine/engine.hpp"
#include "fuzz/fuzzer.hpp"
#include "io/syndrome_io.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/injector.hpp"
#include "mm/syndrome.hpp"
#include "topology/registry.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace mmdiag;

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  mmdiag_cli generate <spec...> --faults K [--seed S] "
               "[--model mm-star|pmc|bgm] "
               "[--behavior random|all-zero|all-one|anti] -o FILE\n"
            << "  mmdiag_cli diagnose FILE [--verify] "
               "[--model mm-star|pmc|bgm] [--local NODE]\n"
            << "  mmdiag_cli diagnose --batch DIR [--threads N]\n"
            << "  mmdiag_cli serve --requests FILE [--threads N] "
               "[--cache-capacity C]\n"
            << "  mmdiag_cli info <spec...> "
               "[--rule least-first|spread|least-sync|hash-spread] "
               "[--memory]\n"
            << "  mmdiag_cli fuzz [--cases N] [--seed S] "
               "[--model mm-star|pmc|bgm] [--out-dir DIR] "
               "[--max-bugs K] [--budget-seconds T]\n"
            << "             [--sabotage none|rule-mismatch|drop-fault]\n"
            << "  mmdiag_cli fuzz --replay FILE "
               "[--sabotage none|rule-mismatch|drop-fault]\n"
            << "  mmdiag_cli churn --stream FILE [--table-oracle]\n"
            << "  mmdiag_cli churn <spec...> [--events N] [--seed S] "
               "[--delta D] [--out FILE]\n";
  return 2;
}

/// Parses the value of `flag` into `out`; prints a usage diagnostic and
/// returns false on anything parse_unsigned (util/parse.hpp) rejects —
/// empty, signs, trailing junk ("12junk"), overflow — so bad command lines
/// become usage errors instead of uncaught std::stoul exceptions or silent
/// wrap-arounds.
template <typename T>
bool parse_flag_value(const std::string& flag, const std::string& token,
                      std::uint64_t max_value, T& out) {
  const auto value = parse_unsigned(token, max_value);
  if (!value) {
    std::cerr << "bad value for " << flag << ": '" << token
              << "' (expected an integer in [0, " << max_value << "])\n";
    return false;
  }
  out = static_cast<T>(*value);
  return true;
}

/// Threads beyond this are a typo, not a machine.
constexpr std::uint64_t kMaxThreads = 4096;

int cmd_generate(const std::vector<std::string>& args) {
  std::string spec, out_path;
  std::size_t faults = 0;
  std::uint64_t seed = 1;
  DiagnosisModel model = DiagnosisModel::kMMStar;
  FaultyBehavior behavior = FaultyBehavior::kRandom;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--faults" && i + 1 < args.size()) {
      if (!parse_flag_value("--faults", args[++i],
                            std::numeric_limits<std::uint32_t>::max(),
                            faults)) {
        return usage();
      }
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!parse_flag_value("--seed", args[++i],
                            std::numeric_limits<std::uint64_t>::max(), seed)) {
        return usage();
      }
    } else if (args[i] == "--model" && i + 1 < args.size()) {
      model = diagnosis_model_from_string(args[++i]);
    } else if (args[i] == "--behavior" && i + 1 < args.size()) {
      behavior = behavior_from_string(args[++i]);
    } else if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      if (!spec.empty()) spec += ' ';
      spec += args[i];
    }
  }
  if (spec.empty() || out_path.empty()) return usage();

  const auto topo = make_topology_from_spec(spec);
  const Graph graph = topo->build_graph();
  Rng rng(seed);
  const FaultSet fault_set(graph.num_nodes(),
                           inject_uniform(graph.num_nodes(), faults, rng));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 2;
  }
  out << "# generated by mmdiag_cli: " << faults << " faults, seed " << seed
      << ", model " << diagnosis_model_to_string(model) << ", behaviour "
      << to_string(behavior) << "\n";
  std::uint64_t total_tests = 0;
  if (is_directed_model(model)) {
    const DirectedSyndrome syndrome =
        generate_directed_syndrome(graph, fault_set, model, behavior, seed);
    write_directed_syndrome(out, spec, model, graph, syndrome);
    total_tests = syndrome.total_tests();
  } else {
    const Syndrome syndrome =
        generate_syndrome(graph, fault_set, behavior, seed);
    write_syndrome(out, spec, graph, syndrome);
    total_tests = syndrome.total_tests();
  }

  std::ofstream truth(out_path + ".truth");
  write_node_list(truth, fault_set.nodes());
  std::cout << "wrote " << out_path << " (" << total_tests << " tests, model "
            << diagnosis_model_to_string(model) << ") and " << out_path
            << ".truth\n";
  return 0;
}

/// Parses an MM* syndrome file against `engine`'s cached graph for its
/// spec. `cal` receives that calibration: the syndrome's rows address its
/// graph, so the caller holds `cal` for as long as it reads them.
ParsedSyndrome read_against_engine(std::istream& in, DiagnosisEngine& engine,
                                   std::shared_ptr<const Calibration>& cal) {
  return read_syndrome(in, [&](const std::string& spec) -> const Graph& {
    cal = engine.calibration(spec);
    return cal->graph;
  });
}

/// What `serve --requests` and `diagnose --batch` share once they have
/// listed their syndrome files: parse each against the engine's cached
/// graphs, serve the lot in one DiagnosisEngine::serve call over `threads`
/// lanes, and print one line per request and the summary. Returns 0, 1
/// when any request failed, or 2 when a file cannot be read or parsed.
int serve_files(const std::vector<std::filesystem::path>& files,
                unsigned threads, std::size_t cache_capacity) {
  namespace fs = std::filesystem;
  EngineOptions engine_options;
  engine_options.threads = threads;
  engine_options.cache_capacity = cache_capacity;
  // Syndrome files address rows through the materialised CSR adjacency.
  engine_options.graph_mode = GraphMode::kCsr;
  DiagnosisEngine engine(engine_options);

  // Load the stream up front. Parsing resolves each spec through the
  // engine, so first-touch calibration cost lands here — reported as the
  // ingest line below; the per-request cold/warm rows then describe the
  // serve phase itself (a "cold" request there means the LRU had to
  // rebuild an evicted calibration mid-stream). Each request carries the
  // canonical spec, so files that spell one topology differently still
  // share a cohort run.
  Timer ingest_timer;
  // Every calibration an oracle reads stays pinned here, even if the LRU
  // evicts it mid-stream.
  std::vector<std::shared_ptr<const Calibration>> pinned;
  pinned.reserve(files.size());
  std::vector<Syndrome> syndromes;
  syndromes.reserve(files.size());
  std::vector<TableOracle> oracles;
  oracles.reserve(files.size());
  std::vector<EngineRequest> requests;
  requests.reserve(files.size());
  for (const fs::path& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot read " << file.string() << "\n";
      return 2;
    }
    std::shared_ptr<const Calibration> cal;
    try {
      syndromes.push_back(read_against_engine(in, engine, cal).syndrome);
    } catch (const std::exception& e) {
      std::cerr << file.string() << ": " << e.what() << "\n";
      return 2;
    }
    oracles.emplace_back(cal->graph, syndromes.back());
    requests.push_back(EngineRequest{cal->spec, &oracles.back()});
    pinned.push_back(std::move(cal));
  }
  const EngineCounters ingested = engine.counters();
  std::cout << "ingest: " << files.size() << " request(s), "
            << ingested.misses << " calibration(s) built in "
            << ingest_timer.millis() << " ms\n";

  Timer timer;
  const std::vector<DiagnosisResult> results = engine.serve(requests);
  const double serve_seconds = timer.seconds();

  int exit_code = 0;
  std::size_t ok = 0;
  double cold_setup = 0, warm_setup = 0, solve_seconds = 0;
  std::size_t cold = 0, warm = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const DiagnosisResult& r = results[i];
    std::cout << files[i].filename().string() << " [" << requests[i].spec
              << "] " << (r.calibration_reused ? "warm" : "cold")
              << " setup " << r.setup_seconds * 1e3 << " ms, solve "
              << r.diagnose_seconds * 1e3 << " ms: ";
    if (!r.success) {
      // Failed requests (engine setup errors have setup_seconds = 0) are
      // excluded from the tallies so they cannot skew the cold/warm
      // amortisation averages.
      std::cout << "FAILED (" << r.failure_reason << ")\n";
      exit_code = 1;
      continue;
    }
    (r.calibration_reused ? warm_setup : cold_setup) += r.setup_seconds;
    ++(r.calibration_reused ? warm : cold);
    solve_seconds += r.diagnose_seconds;
    ++ok;
    std::cout << r.faults.size() << " fault(s)";
    for (const Node v : r.faults) std::cout << ' ' << v;
    std::cout << "\n";
  }

  const EngineCounters counters = engine.counters();
  std::cout << "serve total: " << ok << "/" << results.size()
            << " diagnosed in " << serve_seconds * 1e3 << " ms over "
            << engine.threads() << " thread(s)\n"
            << "  cache: " << counters.hits << " hit(s), " << counters.misses
            << " miss(es), " << counters.evictions << " eviction(s), "
            << counters.entries << "/" << engine.capacity() << " resident\n"
            << "  setup: " << cold << " cold request(s) totalling "
            << cold_setup * 1e3 << " ms, " << warm
            << " warm totalling " << warm_setup * 1e3 << " ms; solve total "
            << solve_seconds * 1e3 << " ms\n";
  if (cold > 0 && warm > 0 && warm_setup > 0) {
    const double amortization =
        (cold_setup / static_cast<double>(cold)) /
        (warm_setup / static_cast<double>(warm));
    std::cout << "  warm-cache per-request setup is " << amortization
              << "x cheaper than cold\n";
  }
  return exit_code;
}

int cmd_diagnose_batch(const std::string& dir, unsigned threads) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    std::cerr << "not a directory: " << dir << "\n";
    return 2;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".truth" || p.filename().string().front() == '.') {
      continue;
    }
    files.push_back(p);
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "no syndrome files in " << dir << "\n";
    return 2;
  }
  // One cache entry per file at most, so no calibration is evicted and
  // rebuilt mid-batch.
  return serve_files(files, threads, files.size());
}

/// Directed (PMC/BGM) single-file diagnose: global solve through
/// DiagnosisEngine::diagnose_directed, or — with `--local` — one node's
/// status through the BGM neighbourhood-read fast path.
int cmd_diagnose_directed(const LoadedDirectedSyndrome& loaded,
                          Node local_node, bool have_local) {
  DiagnosisEngine engine(EngineOptions{});
  const DirectedTableOracle oracle(loaded.graph, loaded.syndrome,
                                   loaded.model);
  std::cout << "loaded " << loaded.spec << ": " << loaded.graph.num_nodes()
            << " nodes, " << loaded.syndrome.total_tests()
            << " directed tests, model "
            << diagnosis_model_to_string(loaded.model) << "\n";

  if (have_local) {
    if (loaded.model != DiagnosisModel::kBGM) {
      std::cerr << "--local needs a bgm syndrome (the local rules rely on "
                   "BGM's asymmetric invalidation); this file is "
                << diagnosis_model_to_string(loaded.model) << "\n";
      return 2;
    }
    if (local_node >= loaded.graph.num_nodes()) {
      std::cerr << "--local node " << local_node << " out of range (graph "
                << "has " << loaded.graph.num_nodes() << " nodes)\n";
      return 2;
    }
    const DiagnosisResult r =
        engine.local_diagnose(loaded.spec, oracle, local_node);
    if (!r.success) {
      std::cerr << "local diagnosis failed: " << r.failure_reason << "\n";
      return 1;
    }
    const bool faulty = !r.faults.empty();
    std::cout << "node " << local_node << ": "
              << (faulty ? "FAULTY" : "healthy") << " via "
              << (r.used_local_fast_path ? "local neighbourhood reads"
                                         : "global solve fallback")
              << " (" << r.lookups << " look-ups, "
              << r.diagnose_seconds * 1e3 << " ms)\n";
    return 0;
  }

  const DiagnosisResult result = engine.diagnose_directed(loaded.spec, oracle);
  if (!result.success) {
    std::cerr << "diagnosis failed: " << result.failure_reason << "\n";
    return 1;
  }
  std::cout << "diagnosed " << result.faults.size() << " fault(s) in "
            << result.diagnose_seconds * 1e3 << " ms solve ("
            << result.lookups << " look-ups):\n";
  for (const Node v : result.faults) {
    std::cout << "  " << v << "  [" << loaded.topology->node_label(v)
              << "]\n";
  }
  if (result.faults.empty()) std::cout << "  (system healthy)\n";
  return 0;
}

int cmd_diagnose(const std::vector<std::string>& args) {
  std::string path, batch_dir;
  bool verify = false;
  unsigned threads = 0;
  bool have_threads = false;
  DiagnosisModel expected_model = DiagnosisModel::kMMStar;
  bool have_expected_model = false;
  Node local_node = kNoNode;
  bool have_local = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool takes_value = arg == "--batch" || arg == "--threads" ||
                             arg == "--model" || arg == "--local";
    if (takes_value && i + 1 == args.size()) {
      std::cerr << "diagnose argument '" << arg << "' needs a value\n";
      return usage();
    }
    if (arg == "--verify") {
      verify = true;
    } else if (arg == "--batch") {
      batch_dir = args[++i];
    } else if (arg == "--threads") {
      if (!parse_flag_value("--threads", args[++i], kMaxThreads, threads)) {
        return usage();
      }
      have_threads = true;
    } else if (arg == "--model") {
      expected_model = diagnosis_model_from_string(args[++i]);
      have_expected_model = true;
    } else if (arg == "--local") {
      if (!parse_flag_value("--local", args[++i],
                            std::numeric_limits<Node>::max() - 1,
                            local_node)) {
        return usage();
      }
      have_local = true;
    } else if (arg.starts_with('-')) {
      std::cerr << "unknown diagnose argument '" << arg << "'\n";
      return usage();
    } else if (!path.empty()) {
      std::cerr << "diagnose takes one syndrome file, got a second: '" << arg
                << "'\n";
      return usage();
    } else {
      path = arg;
    }
  }
  if (!batch_dir.empty()) {
    if (!path.empty() || verify || have_expected_model || have_local) {
      std::cerr << "diagnose --batch takes only --threads, no syndrome "
                   "file, --verify, --model or --local\n";
      return usage();
    }
    return cmd_diagnose_batch(batch_dir, threads);
  }
  if (have_threads) {
    std::cerr << "diagnose argument '--threads' needs --batch: a single "
                 "file is diagnosed on one thread\n";
    return usage();
  }
  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  // Slurp once: the model header decides which reader (and solver) the
  // file goes to, and the chosen reader re-parses from the start.
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::istringstream peek(buffer.str());
  const SyndromeFileHeader header = peek_syndrome_header(peek);
  if (have_expected_model && header.model != expected_model) {
    std::cerr << path << " carries a "
              << diagnosis_model_to_string(header.model)
              << " syndrome, but --model "
              << diagnosis_model_to_string(expected_model)
              << " was requested\n";
    return 2;
  }
  if (is_directed_model(header.model)) {
    if (verify) {
      std::cerr << "--verify applies to mm-star syndromes only (directed "
                   "models have no comparator-consistency check)\n";
      return 2;
    }
    std::istringstream body(buffer.str());
    return cmd_diagnose_directed(read_directed_syndrome(body), local_node,
                                 have_local);
  }
  if (have_local) {
    std::cerr << "--local needs a bgm syndrome; this file is mm-star\n";
    return 2;
  }

  EngineOptions engine_options;
  engine_options.threads = 1;
  // Syndrome files address rows through the materialised CSR adjacency.
  engine_options.graph_mode = GraphMode::kCsr;
  DiagnosisEngine engine(engine_options);
  std::shared_ptr<const Calibration> cal;
  std::istringstream body(buffer.str());
  const ParsedSyndrome loaded = read_against_engine(body, engine, cal);
  std::cout << "loaded " << cal->spec << ": " << cal->graph.num_nodes()
            << " nodes, " << loaded.syndrome.total_tests() << " tests\n";

  const TableOracle oracle(cal->graph, loaded.syndrome);
  DiagnosisResult result;
  if (verify) {
    const auto diagnoser = engine.make_diagnoser(loaded.spec);
    result = diagnose_and_verify(*diagnoser, oracle);
  } else {
    result = engine.diagnose(loaded.spec, oracle);
  }
  if (!result.success) {
    std::cerr << "diagnosis failed: " << result.failure_reason << "\n";
    return 1;
  }
  std::cout << "diagnosed " << result.faults.size() << " fault(s) in "
            << result.diagnose_seconds * 1e3 << " ms solve + "
            << cal->build_seconds * 1e3 << " ms calibration ("
            << result.lookups << " look-ups"
            << (verify ? ", verified" : "") << "):\n";
  for (const Node v : result.faults) {
    std::cout << "  " << v << "  [" << cal->topology->node_label(v) << "]\n";
  }
  if (result.faults.empty()) std::cout << "  (system healthy)\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  namespace fs = std::filesystem;
  std::string requests_path;
  unsigned threads = 0;
  std::size_t cache_capacity = 8;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--requests" && i + 1 < args.size()) {
      requests_path = args[++i];
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      if (!parse_flag_value("--threads", args[++i], kMaxThreads, threads)) {
        return usage();
      }
    } else if (args[i] == "--cache-capacity" && i + 1 < args.size()) {
      if (!parse_flag_value("--cache-capacity", args[++i],
                            std::uint64_t{1'000'000}, cache_capacity)) {
        return usage();
      }
    } else {
      std::cerr << "unknown serve argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (requests_path.empty()) return usage();

  std::ifstream list(requests_path);
  if (!list) {
    std::cerr << "cannot read " << requests_path << "\n";
    return 2;
  }
  const fs::path base = fs::path(requests_path).parent_path();
  std::vector<fs::path> files;
  std::string line;
  while (std::getline(list, line)) {
    if (line.empty() || line[0] == '#') continue;
    fs::path p(line);
    if (p.is_relative()) p = base / p;
    files.push_back(std::move(p));
  }
  if (files.empty()) {
    std::cerr << "no requests in " << requests_path << "\n";
    return 2;
  }

  return serve_files(files, threads, cache_capacity);
}

int cmd_info(const std::vector<std::string>& args) {
  std::string spec;
  ParentRule rule = ParentRule::kSpread;
  bool show_memory = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--rule" && i + 1 < args.size()) {
      rule = parent_rule_from_string(args[++i]);
      continue;
    }
    if (args[i] == "--memory") {
      show_memory = true;
      continue;
    }
    if (!spec.empty()) spec += ' ';
    spec += args[i];
  }
  if (spec.empty()) return usage();
  const auto topo = make_topology_from_spec(spec);
  const auto info = topo->info();
  // The same auto rule the engine applies: large implicit-capable instances
  // never materialise their CSR here — info stays O(N) memory at any size.
  const bool implicit = resolve_implicit_mode(GraphMode::kAuto, info);
  std::cout << info.name << " (" << info.family << ")\n"
            << "  spec:           " << topo->spec() << "\n"
            << "  nodes:          " << info.num_nodes << "\n"
            << "  degree:         " << info.degree << "\n"
            << "  connectivity:   " << info.connectivity << "\n"
            << "  diagnosability: " << info.diagnosability << "\n"
            << "  fault bound:    " << topo->default_fault_bound() << "\n"
            << "  probe rule:     " << parent_rule_to_string(rule) << "\n"
            << "  graph view:     " << (implicit ? "implicit" : "csr") << "\n"
            << "  models:\n"
            << "    mm-star       Diagnoser over the comparator matrix "
               "(SyndromeOracle; csr or implicit view)\n"
            << "    pmc           DirectedDiagnoser global solve "
               "(DirectedOracle; csr only)\n"
            << "    bgm           DirectedDiagnoser + bgm_local_diagnose "
               "fast path (DirectedOracle; csr only)\n";
  Graph graph;
  if (!implicit) graph = topo->build_graph();
  if (show_memory) {
    const std::uint64_t csr_bytes =
        implicit ? csr_memory_bytes_estimate(info.num_nodes, info.degree)
                 : graph.memory_bytes();
    std::cout << "  memory:         csr " << csr_bytes << " B"
              << (implicit ? " (estimated, not built)" : "");
    if (info.degree <= ImplicitGraph::kMaxDegree &&
        info.num_nodes <= static_cast<std::uint64_t>(kNoNode)) {
      const ImplicitGraph view(*topo);
      std::cout << " vs implicit " << view.memory_bytes() << " B";
    }
    std::cout << "\n";
  }
  try {
    CertifiedPartition cp;
    if (implicit) {
      const ImplicitGraph view(*topo);
      cp = find_certified_partition(*topo, view, topo->default_fault_bound(),
                                    rule, true);
    } else {
      cp = find_certified_partition(*topo, graph, topo->default_fault_bound(),
                                    rule, true);
    }
    std::cout << "  partition:      " << cp.plan->description() << "\n";
  } catch (const DiagnosisUnsupportedError& e) {
    std::cout << "  partition:      UNSUPPORTED\n" << e.what();
  }
  return 0;
}

int cmd_fuzz_replay(const std::string& path, Sabotage sabotage) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  const FuzzCase c = read_repro(in);
  std::cout << "replaying " << path << ": " << c.spec << ", delta " << c.delta
            << ", " << c.faults.size() << " fault(s), model "
            << diagnosis_model_to_string(c.model) << ", pattern "
            << to_string(c.pattern) << ", behaviour " << to_string(c.behavior)
            << "\n";
  FuzzContext ctx;
  const DiffReport report = run_differential(ctx, c, sabotage);
  if (!report.diverged()) {
    std::cout << "replay clean: all driver configurations agree with the "
                 "exact solver\n";
    return 0;
  }
  for (const Divergence& d : report.divergences) {
    std::cerr << "DIVERGENCE [" << d.config << "] " << d.detail << "\n";
  }
  return 1;
}

int cmd_fuzz(const std::vector<std::string>& args) {
  FuzzOptions options;
  std::string replay_path, out_dir = ".";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--cases" && i + 1 < args.size()) {
      if (!parse_flag_value("--cases", args[++i], std::uint64_t{100'000'000},
                            options.cases)) {
        return usage();
      }
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!parse_flag_value("--seed", args[++i],
                            std::numeric_limits<std::uint64_t>::max(),
                            options.seed)) {
        return usage();
      }
    } else if (args[i] == "--max-bugs" && i + 1 < args.size()) {
      if (!parse_flag_value("--max-bugs", args[++i], std::uint64_t{1'000'000},
                            options.max_bugs)) {
        return usage();
      }
    } else if (args[i] == "--budget-seconds" && i + 1 < args.size()) {
      std::uint64_t seconds = 0;
      if (!parse_flag_value("--budget-seconds", args[++i],
                            std::uint64_t{86'400}, seconds)) {
        return usage();
      }
      options.budget_seconds = static_cast<double>(seconds);
    } else if (args[i] == "--model" && i + 1 < args.size()) {
      options.models = {diagnosis_model_from_string(args[++i])};
    } else if (args[i] == "--sabotage" && i + 1 < args.size()) {
      options.sabotage = sabotage_from_string(args[++i]);
    } else if (args[i] == "--replay" && i + 1 < args.size()) {
      replay_path = args[++i];
    } else if (args[i] == "--out-dir" && i + 1 < args.size()) {
      out_dir = args[++i];
    } else {
      std::cerr << "unknown fuzz argument '" << args[i] << "'\n";
      return usage();
    }
  }
  if (!replay_path.empty()) return cmd_fuzz_replay(replay_path, options.sabotage);

  Fuzzer fuzzer(options);
  Timer timer;
  const FuzzSummary summary = fuzzer.run();
  std::cout << "fuzz: " << summary.cases_run << " case(s), seed "
            << options.seed << ", " << summary.beyond_delta_cases
            << " beyond-delta, " << timer.millis() << " ms"
            << (summary.budget_exhausted ? " (budget exhausted)" : "") << "\n";
  std::cout << "  families:";
  for (const auto& [family, count] : summary.cases_per_family) {
    std::cout << ' ' << family << '=' << count;
  }
  std::cout << "\n  patterns:";
  for (const auto& [pattern, count] : summary.cases_per_pattern) {
    std::cout << ' ' << pattern << '=' << count;
  }
  std::cout << "\n  models:";
  for (const auto& [model, count] : summary.cases_per_model) {
    std::cout << ' ' << model << '=' << count;
  }
  std::cout << "\n";
  if (summary.clean()) {
    std::cout << "no divergences: every driver configuration agreed with the "
                 "exact solver on every case\n";
    return 0;
  }
  std::filesystem::create_directories(out_dir);
  for (const FuzzBug& bug : summary.bugs) {
    const std::string name = "repro-seed" + std::to_string(options.seed) +
                             "-case" + std::to_string(bug.case_index) +
                             ".repro";
    const std::filesystem::path path = std::filesystem::path(out_dir) / name;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path.string() << "\n";
      return 2;
    }
    out << "# minimized from case " << bug.case_index << " of seed "
        << options.seed << " (" << bug.original.spec << ", "
        << bug.original.faults.size() << " faults)\n";
    out << "# divergence [" << bug.config << "] " << bug.detail << "\n";
    write_repro(out, bug.minimized);
    std::cerr << "DIVERGENCE at case " << bug.case_index << " ["
              << bug.config << "] " << bug.detail << "\n";
    std::cerr << "  minimized to " << bug.minimized.spec << " with "
              << bug.minimized.faults.size() << " fault(s); repro written to "
              << path.string() << "\n";
  }
  return 1;
}

int cmd_churn(const std::vector<std::string>& args) {
  std::string stream_path, out_path, spec;
  std::size_t events = 32;
  std::uint64_t seed = 1;
  unsigned delta = 0;
  bool table_oracle = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--stream" && i + 1 < args.size()) {
      stream_path = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--table-oracle") {
      table_oracle = true;
    } else if (args[i] == "--events" && i + 1 < args.size()) {
      if (!parse_flag_value("--events", args[++i], std::uint64_t{1'000'000},
                            events)) {
        return usage();
      }
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!parse_flag_value("--seed", args[++i],
                            std::numeric_limits<std::uint64_t>::max(), seed)) {
        return usage();
      }
    } else if (args[i] == "--delta" && i + 1 < args.size()) {
      if (!parse_flag_value("--delta", args[++i], std::uint64_t{1'000},
                            delta)) {
        return usage();
      }
    } else {
      if (!spec.empty()) spec += ' ';
      spec += args[i];
    }
  }
  // Exactly one mode: replay a stream file, or generate one for a spec.
  if (stream_path.empty() == spec.empty()) return usage();

  EngineOptions engine_options;
  engine_options.threads = 1;
  DiagnosisEngine engine(engine_options);

  if (!stream_path.empty()) {
    std::ifstream in(stream_path);
    if (!in) {
      std::cerr << "cannot read " << stream_path << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const ChurnStream stream = parse_churn_stream(buffer.str());
    ChurnHarnessOptions harness_options;
    harness_options.use_table_oracle = table_oracle;
    Timer timer;
    const ChurnHarnessReport report =
        run_churn_stream(engine, stream, harness_options);
    std::cout << "churn replay of " << stream.spec << ": " << report.events
              << " event(s) in " << timer.millis() << " ms ("
              << report.topology_events << " topology, "
              << report.diagnose_events << " diagnose, "
              << report.delta_events << " delta, " << report.expected_errors
              << " expected-error)\n";
    std::cout << "  degraded components seen " << report.degraded_components_seen
              << ", empty " << report.empty_components_seen
              << ", cache reuses " << report.cache_reuses << "\n";
    std::cout << "  recertified " << report.warm_recert_components
              << " component(s) incrementally vs " << report.cold_recert_components
              << " under cold recalibration\n";
    if (report.ok()) {
      std::cout << "warm incremental answers bit-identical to cold "
                   "recalibration throughout\n";
      return 0;
    }
    for (const std::string& d : report.divergences) {
      std::cerr << "DIVERGENCE " << d << "\n";
    }
    return 1;
  }

  ChurnStreamConfig config;
  config.spec = spec;
  config.delta = delta;
  config.seed = seed;
  config.events = events;
  const ChurnStream stream = generate_churn_stream(engine, config);
  const std::string text = format_churn_stream(stream);
  if (out_path.empty()) {
    std::cout << text;
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 2;
  }
  out << text;
  std::cout << "wrote " << stream.events.size() << " event(s) for "
            << stream.spec << " to " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "diagnose") return cmd_diagnose(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "info") return cmd_info(args);
    if (command == "fuzz") return cmd_fuzz(args);
    if (command == "churn") return cmd_churn(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
