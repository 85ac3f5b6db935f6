// DiagnosisEngine: thread-safe LRU calibration cache semantics (single
// build per key under racing misses, LRU eviction, eviction safety through
// shared ownership) and bit-identical equivalence with directly constructed
// Diagnosers across every registry family.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/diagnoser.hpp"
#include "core/directed_diagnoser.hpp"
#include "engine/engine.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/injector.hpp"
#include "mm/syndrome.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

/// One certifiable (spec, delta) pair per registry family — the explicit
/// deltas keep small instances inside their §5 validity window.
struct FamilyCase {
  const char* spec;
  unsigned delta;
};
constexpr FamilyCase kEveryFamily[] = {
    {"hypercube 5", 3},          {"crossed_cube 5", 3},
    {"twisted_cube 5", 3},       {"folded_hypercube 5", 3},
    {"enhanced_hypercube 5 2", 3}, {"augmented_cube 6", 3},
    {"shuffle_cube 6", 3},       {"twisted_n_cube 5", 3},
    {"kary_ncube 2 6", 3},       {"augmented_kary_ncube 3 4", 3},
    {"star 4", 3},               {"nk_star 5 3", 4},
    {"pancake 4", 3},            {"arrangement 5 3", 4},
};

void expect_bit_identical(const DiagnosisResult& direct,
                          const DiagnosisResult& engine, std::size_t item) {
  ASSERT_EQ(direct.success, engine.success) << "item " << item;
  ASSERT_EQ(direct.faults, engine.faults) << "item " << item;
  ASSERT_EQ(direct.lookups, engine.lookups) << "item " << item;
  ASSERT_EQ(direct.probes, engine.probes) << "item " << item;
  ASSERT_EQ(direct.certified_component, engine.certified_component)
      << "item " << item;
  ASSERT_EQ(direct.final_members, engine.final_members) << "item " << item;
  ASSERT_EQ(direct.final_rounds, engine.final_rounds) << "item " << item;
  ASSERT_EQ(direct.failure_reason, engine.failure_reason) << "item " << item;
}

TEST(DiagnosisEngine, BitIdenticalToDirectDiagnoserForEveryFamily) {
  EngineOptions options;
  options.cache_capacity = std::size(kEveryFamily);
  options.diagnoser.delta = 0;  // per-call explicit deltas below
  DiagnosisEngine engine(options);
  for (const FamilyCase& family : kEveryFamily) {
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    DiagnoserOptions direct_options;
    direct_options.delta = family.delta;
    Diagnoser direct(*inst.topo, inst.graph, direct_options);
    const auto cal =
        engine.calibration(family.spec, family.delta, ParentRule::kSpread);
    EXPECT_EQ(cal->delta(), family.delta);
    EXPECT_EQ(cal->spec, inst.topo->spec());
    for (std::size_t i = 0; i < 4; ++i) {
      Rng rng(300 + i);
      const FaultSet faults(
          inst.graph.num_nodes(),
          inject_uniform(inst.graph.num_nodes(), i % (family.delta + 1), rng));
      const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, i);
      // Engine-side Diagnoser adopts the cached calibration through shared
      // ownership; the direct one calibrated from scratch.
      Diagnoser routed(graph_handle(cal), cal->partition, direct_options);
      expect_bit_identical(direct.diagnose(oracle), routed.diagnose(oracle),
                           i);
    }
  }
}

TEST(DiagnosisEngine, ServeMatchesDirectAndFlagsReuse) {
  EngineOptions options;
  options.cache_capacity = 4;
  options.threads = 3;
  DiagnosisEngine engine(options);
  const char* specs[] = {"hypercube 7", "star 5", "hypercube 7", "star 5",
                         "hypercube 7"};
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  std::vector<EngineRequest> requests;
  faults.reserve(std::size(specs));
  oracles.reserve(std::size(specs));
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const test::Instance inst(specs[i]);
    Rng rng(40 + i);
    faults.emplace_back(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 2, rng));
  }
  // Oracles must address the engine's graphs? No — any equal-content graph
  // works; use per-request instances exactly like external callers do.
  std::vector<std::unique_ptr<test::Instance>> insts;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    insts.push_back(std::make_unique<test::Instance>(specs[i]));
    oracles.emplace_back(insts.back()->graph, faults[i],
                         FaultyBehavior::kRandom, i);
    requests.push_back(EngineRequest{specs[i], &oracles.back()});
  }
  const std::vector<DiagnosisResult> served = engine.serve(requests);
  ASSERT_EQ(served.size(), std::size(specs));
  for (std::size_t i = 0; i < served.size(); ++i) {
    SCOPED_TRACE(i);
    Diagnoser direct(*insts[i]->topo, insts[i]->graph);
    expect_bit_identical(direct.diagnose(oracles[i]), served[i], i);
  }
  // Exactly two calibrations behind five requests. The cold count may
  // exceed two: a lane racing the builder blocks for the build and is
  // honestly attributed as not-reused even though the counters score a hit.
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.entries, 2u);
  std::size_t cold = 0;
  for (const DiagnosisResult& r : served) cold += r.calibration_reused ? 0 : 1;
  EXPECT_GE(cold, 2u);
  EXPECT_LE(cold, served.size());
}

TEST(DiagnosisEngine, ServeIsolatesPerRequestFailures) {
  DiagnosisEngine engine;
  test::Instance inst("hypercube 7");
  Rng rng(7);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 3, rng));
  const LazyOracle good(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const LazyOracle doomed(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const std::vector<EngineRequest> requests = {
      {"hypercube 7", &good},
      {"no_such_family 3", &doomed},   // unknown spec
      {"hypercube 7", nullptr},        // null oracle
  };
  const std::vector<DiagnosisResult> served = engine.serve(requests);
  ASSERT_EQ(served.size(), 3u);
  EXPECT_TRUE(served[0].success) << served[0].failure_reason;
  EXPECT_FALSE(served[1].success);
  EXPECT_NE(served[1].failure_reason.find("no_such_family"),
            std::string::npos);
  EXPECT_FALSE(served[2].success);
  EXPECT_NE(served[2].failure_reason.find("null oracle"), std::string::npos);
}

/// Oracles for one serve() stream and everything they point into. Deques
/// keep addresses stable as requests are added.
struct StreamOracles {
  std::deque<FaultSet> faults;
  std::deque<Syndrome> syndromes;
  std::deque<TableOracle> tables;
  std::deque<LazyOracle> lazies;
  std::deque<DirectedLazyOracle> directed;

  /// The k-th syndrome of a stream over `g`: |F| cycles 0..delta under all
  /// four faulty behaviours.
  const FaultSet& next_faults(const Graph& g, unsigned delta, std::size_t k,
                              Rng& rng) {
    const std::size_t n = g.num_nodes();
    return faults.emplace_back(n, inject_uniform(n, k % (delta + 1), rng));
  }
  const TableOracle& table(const Graph& g, unsigned delta, std::size_t k,
                           Rng& rng) {
    const FaultSet& f = next_faults(g, delta, k, rng);
    const Syndrome& s = syndromes.emplace_back(generate_syndrome(
        g, f, kAllFaultyBehaviors[(k / (delta + 1)) % 4], rng()));
    return tables.emplace_back(g, s);
  }
  const LazyOracle& lazy(const Graph& g, unsigned delta, std::size_t k,
                         Rng& rng) {
    const FaultSet& f = next_faults(g, delta, k, rng);
    return lazies.emplace_back(g, f,
                               kAllFaultyBehaviors[(k / (delta + 1)) % 4],
                               rng());
  }
};

TEST(DiagnosisEngine, ServeCohortRunsLandAtTheirIndexBitIdentical) {
  // Table runs of three specs at lengths around the cohort planner's cuts:
  // 15, 16 and 63 stay scalar, 64 makes one cohort, 65 and 70 two, 130
  // three. Each round shuffles them, from a fixed seed, among lazy
  // requests and one PMC request. Every result must land at its own index
  // and equal the direct solver's, so a cohort that hands a lane another
  // lane's answer fails here.
  EngineOptions options;
  options.threads = 3;
  options.graph_mode = GraphMode::kCsr;
  DiagnosisEngine engine(options);
  const test::Instance cube("hypercube 7");
  const test::Instance star("star 5");
  const test::Instance kary("kary_ncube 4 4");
  Diagnoser cube_direct(*cube.topo, cube.graph);
  Diagnoser star_direct(*star.topo, star.graph);
  Diagnoser kary_direct(*kary.topo, kary.graph);
  DirectedDiagnoser pmc_direct(cube.graph, cube_direct.delta());

  enum class Kind {
    kCubeTable, kStarTable, kKaryTable, kCubeLazy, kStarLazy, kPmc
  };
  constexpr std::size_t kRunLengths[] = {15, 16, 63, 64, 65, 70, 130};
  constexpr std::size_t kCount = std::size(kRunLengths);
  for (std::size_t round = 0; round < kCount; ++round) {
    // hypercube 7 takes this round's length, star 5 the length three
    // along and kary_ncube 4 4 the length five along, so every spec meets
    // every length.
    const std::size_t cube_run = kRunLengths[round];
    const std::size_t star_run = kRunLengths[(round + 3) % kCount];
    const std::size_t kary_run = kRunLengths[(round + 5) % kCount];
    SCOPED_TRACE("hypercube 7 x" + std::to_string(cube_run) + ", star 5 x" +
                 std::to_string(star_run) + ", kary_ncube 4 4 x" +
                 std::to_string(kary_run));
    std::vector<Kind> kinds;
    kinds.insert(kinds.end(), cube_run, Kind::kCubeTable);
    kinds.insert(kinds.end(), star_run, Kind::kStarTable);
    kinds.insert(kinds.end(), kary_run, Kind::kKaryTable);
    kinds.insert(kinds.end(), 5, Kind::kCubeLazy);
    kinds.insert(kinds.end(), 4, Kind::kStarLazy);
    kinds.push_back(Kind::kPmc);
    Rng rng(0x5EED00 + round);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.below(i)]);
    }

    StreamOracles oracles;
    std::vector<EngineRequest> requests;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      switch (kinds[k]) {
        case Kind::kCubeTable:
          requests.push_back({"hypercube 7",
                              &oracles.table(cube.graph, cube_direct.delta(), k, rng),
                              nullptr, kNoNode});
          break;
        case Kind::kStarTable:
          requests.push_back({"star 5",
                              &oracles.table(star.graph, star_direct.delta(), k, rng),
                              nullptr, kNoNode});
          break;
        case Kind::kKaryTable:
          requests.push_back({"kary_ncube 4 4",
                              &oracles.table(kary.graph, kary_direct.delta(), k, rng),
                              nullptr, kNoNode});
          break;
        case Kind::kCubeLazy:
          requests.push_back({"hypercube 7",
                              &oracles.lazy(cube.graph, cube_direct.delta(), k, rng),
                              nullptr, kNoNode});
          break;
        case Kind::kStarLazy:
          requests.push_back({"star 5",
                              &oracles.lazy(star.graph, star_direct.delta(), k, rng),
                              nullptr, kNoNode});
          break;
        case Kind::kPmc: {
          const FaultSet& f = oracles.next_faults(cube.graph, 3, 2, rng);
          requests.push_back(
              {"hypercube 7", nullptr,
               &oracles.directed.emplace_back(cube.graph, f,
                                              DiagnosisModel::kPMC,
                                              FaultyBehavior::kRandom, rng()),
               kNoNode});
          break;
        }
      }
    }

    const std::vector<DiagnosisResult> served = engine.serve(requests);
    ASSERT_EQ(served.size(), requests.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      const EngineRequest& rq = requests[i];
      const DiagnosisResult expected =
          rq.directed != nullptr        ? pmc_direct.diagnose(*rq.directed)
          : rq.spec == "star 5"         ? star_direct.diagnose(*rq.oracle)
          : rq.spec == "kary_ncube 4 4" ? kary_direct.diagnose(*rq.oracle)
                                        : cube_direct.diagnose(*rq.oracle);
      expect_bit_identical(expected, served[i], i);
    }
  }
}

TEST(DiagnosisEngine, ServeFailsRequestsWhoseOracleAddressesAnotherGraph) {
  // Three strays sent as "hypercube 7": a hypercube 5 table and lazy
  // oracle, which would read a 32-node syndrome through 128-node
  // adjacency, and a table over hypercube 7 minus an edge, whose node
  // count and maximum degree match. Each must fail alone with a message
  // naming both shapes: first sent alone, then among 64 matched table
  // requests (a cohort run), which stay bit-identical to the direct
  // Diagnoser. The third stream adds 64 more hypercube 5 and 64 more cut
  // tables, runs long enough to form cohorts of their own, which must
  // fail lane by lane the same way.
  EngineOptions options;
  options.threads = 2;
  options.graph_mode = GraphMode::kCsr;
  DiagnosisEngine engine(options);
  const test::Instance q7("hypercube 7");
  const test::Instance q5("hypercube 5");
  const Graph cut = test::without_edge(q7.graph, 126, 127);
  Diagnoser direct(*q7.topo, q7.graph);
  const std::string solver_shape =
      ", but the solver's graph has 128 nodes of degree 7";
  const std::string q5_reason =
      "the oracle addresses a graph of 32 nodes of degree 5" + solver_shape;
  const std::string cut_reason =
      "the oracle addresses a graph of 128 nodes of degree 6..7" +
      solver_shape;

  const struct {
    std::size_t matched;
    std::size_t extra_strays;
  } streams[] = {{0, 0}, {64, 0}, {64, 64}};
  for (const auto& stream : streams) {
    SCOPED_TRACE(std::to_string(stream.matched) + " matched, " +
                 std::to_string(stream.extra_strays) + " extra strays");
    StreamOracles oracles;
    Rng rng(0xBAD5 + stream.matched + stream.extra_strays);
    std::vector<EngineRequest> requests;
    std::vector<std::string> reasons;  // empty for a matched request
    auto send = [&](const SyndromeOracle& oracle, const std::string& reason) {
      requests.push_back({"hypercube 7", &oracle, nullptr, kNoNode});
      reasons.push_back(reason);
    };
    for (std::size_t k = 0; k < std::max<std::size_t>(stream.matched, 1);
         ++k) {
      if (k < stream.matched) {
        send(oracles.table(q7.graph, direct.delta(), k, rng), "");
      }
      if (k == std::min<std::size_t>(stream.matched, 6)) {
        send(oracles.table(q5.graph, 3, k, rng), q5_reason);
      }
      if (k == std::min<std::size_t>(stream.matched, 13)) {
        send(oracles.lazy(q5.graph, 3, k, rng), q5_reason);
      }
      if (k == std::min<std::size_t>(stream.matched, 40)) {
        send(oracles.table(cut, 3, k, rng), cut_reason);
      }
      if (k < stream.extra_strays) {
        send(oracles.table(q5.graph, 3, k, rng), q5_reason);
        send(oracles.table(cut, 3, k, rng), cut_reason);
      }
    }

    const std::vector<DiagnosisResult> served = engine.serve(requests);
    ASSERT_EQ(served.size(), requests.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      if (!reasons[i].empty()) {
        EXPECT_FALSE(served[i].success) << "item " << i;
        EXPECT_NE(served[i].failure_reason.find(reasons[i]), std::string::npos)
            << "item " << i << ": " << served[i].failure_reason;
        continue;
      }
      expect_bit_identical(direct.diagnose(*requests[i].oracle), served[i], i);
    }
  }
}

TEST(DiagnosisEngine, DirectedOracleOverAnotherGraphIsRejected) {
  // Two directed strays sent as "hypercube 7": a BGM table over hypercube
  // 5, which a local request for node 100 would read past its 32 rows, and
  // a PMC lazy oracle over hypercube 7 minus an edge, whose node count
  // matches but whose node 126 has one neighbour fewer. Every entry point
  // must refuse each before its first look-up, naming both shapes; in
  // serve() each fails alone while matched PMC and BGM local requests in
  // the same stream equal their direct solves.
  const test::Instance q7("hypercube 7");
  const test::Instance q5("hypercube 5");
  const Graph cut = test::without_edge(q7.graph, 126, 127);
  const FaultSet q5_faults(q5.graph.num_nodes(), {3});
  const DirectedSyndrome q5_syndrome = generate_directed_syndrome(
      q5.graph, q5_faults, DiagnosisModel::kBGM, FaultyBehavior::kAllOne, 1);
  const DirectedTableOracle bgm_stray(q5.graph, q5_syndrome,
                                      DiagnosisModel::kBGM);
  const FaultSet cut_faults(cut.num_nodes(), {3, 77});
  const DirectedLazyOracle pmc_stray(cut, cut_faults, DiagnosisModel::kPMC,
                                     FaultyBehavior::kRandom, 1);
  const std::string solver_shape =
      ", but the solver's graph has 128 nodes of degree 7";
  const struct {
    const DirectedOracle& oracle;
    std::string reason;
  } strays[] = {
      {bgm_stray,
       "the oracle addresses a graph of 32 nodes of degree 5" + solver_shape},
      {pmc_stray,
       "the oracle addresses a graph of 128 nodes of degree 6..7" +
           solver_shape}};

  DiagnosisEngine engine;
  DirectedDiagnoser direct(q7.graph, 7);
  constexpr Node kLocal = 100;
  for (const auto& stray : strays) {
    SCOPED_TRACE(stray.reason);
    auto expect_rejected = [&](auto&& call, const char* who) {
      try {
        call();
        ADD_FAILURE() << who << " accepted an oracle over another graph";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(stray.reason), std::string::npos)
            << who << ": " << e.what();
      }
    };
    expect_rejected(
        [&] { (void)engine.local_diagnose("hypercube 7", stray.oracle, kLocal); },
        "local_diagnose");
    expect_rejected(
        [&] { (void)engine.diagnose_directed("hypercube 7", stray.oracle); },
        "diagnose_directed");
    expect_rejected(
        [&] { (void)bgm_local_diagnose(q7.graph, stray.oracle, kLocal); },
        "bgm_local_diagnose");
    expect_rejected([&] { (void)direct.diagnose(stray.oracle); },
                    "DirectedDiagnoser");
    EXPECT_EQ(stray.oracle.lookups(), 0u);
  }

  const DirectedLazyOracle pmc_matched(q7.graph, cut_faults,
                                       DiagnosisModel::kPMC,
                                       FaultyBehavior::kRandom, 2);
  const DirectedLazyOracle bgm_matched(q7.graph, cut_faults,
                                       DiagnosisModel::kBGM,
                                       FaultyBehavior::kRandom, 3);
  const std::vector<EngineRequest> requests = {
      {"hypercube 7", nullptr, &pmc_matched, kNoNode},
      {"hypercube 7", nullptr, &bgm_stray, kLocal},
      {"hypercube 7", nullptr, &pmc_stray, kNoNode},
      {"hypercube 7", nullptr, &bgm_matched, 3},
  };
  const std::vector<DiagnosisResult> served = engine.serve(requests);
  ASSERT_EQ(served.size(), requests.size());
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_FALSE(served[i].success) << "item " << i;
    EXPECT_NE(served[i].failure_reason.find(strays[i - 1].reason),
              std::string::npos)
        << "item " << i << ": " << served[i].failure_reason;
  }
  EXPECT_EQ(bgm_stray.lookups(), 0u);
  EXPECT_EQ(pmc_stray.lookups(), 0u);

  expect_bit_identical(direct.diagnose(pmc_matched), served[0], 0);
  const LocalDiagnosisResult local =
      bgm_local_diagnose(q7.graph, bgm_matched, 3);
  ASSERT_EQ(local.status, LocalDiagnosisStatus::kFaulty);
  EXPECT_TRUE(served[3].success) << served[3].failure_reason;
  EXPECT_TRUE(served[3].used_local_fast_path);
  EXPECT_EQ(served[3].faults, (std::vector<Node>{3}));
  EXPECT_EQ(served[3].lookups, local.lookups);
}

TEST(DiagnosisEngine, CanonicalSpecSharingAcrossSpellings) {
  DiagnosisEngine engine;
  const auto a = engine.calibration("hypercube 7");
  const auto b = engine.calibration("  hypercube \t 07 ");
  EXPECT_EQ(a.get(), b.get()) << "spellings of one instance must share";
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.entries, 1u);
  // Distinct calibration parameters are distinct entries of the same spec.
  const auto c = engine.calibration("hypercube 7", 3, ParentRule::kSpread);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(engine.counters().misses, 2u);
}

TEST(DiagnosisEngine, CalibratesOncePerKeyUnderRacingMisses) {
  // N pool workers all miss on the same 4 specs at once; the striped build
  // locks must collapse every race to exactly one build per key.
  const char* specs[] = {"hypercube 7", "star 5", "kary_ncube 4 4",
                         "pancake 5"};
  EngineOptions options;
  options.cache_capacity = std::size(specs);
  options.threads = 1;
  DiagnosisEngine engine(options);
  ThreadPool pool(8);
  constexpr std::size_t kCalls = 64;
  std::vector<const Calibration*> seen(kCalls, nullptr);
  std::atomic<std::size_t> failures{0};
  pool.parallel_for(kCalls, [&](unsigned, std::size_t i) {
    try {
      seen[i] = engine.calibration(specs[i % std::size(specs)]).get();
    } catch (const std::exception&) {
      ++failures;
    }
  });
  ASSERT_EQ(failures.load(), 0u);
  // Pointer identity per spec: every call got the one shared bundle.
  std::set<const Calibration*> distinct;
  for (std::size_t i = 0; i < kCalls; ++i) {
    ASSERT_NE(seen[i], nullptr) << "call " << i;
    ASSERT_EQ(seen[i], seen[i % std::size(specs)]) << "call " << i;
    distinct.insert(seen[i]);
  }
  EXPECT_EQ(distinct.size(), std::size(specs));
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, std::size(specs));
  EXPECT_EQ(counters.hits, kCalls - std::size(specs));
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.entries, std::size(specs));
}

TEST(DiagnosisEngine, LruEvictionOrderAndRebuild) {
  const std::string a = "hypercube 7", b = "star 5", c = "kary_ncube 4 4";
  EngineOptions options;
  options.cache_capacity = 2;
  options.threads = 1;
  DiagnosisEngine engine(options);
  const auto cal_a = engine.calibration(a);  // miss: {a}
  (void)engine.calibration(b);               // miss: {b, a}
  (void)engine.calibration(a);               // hit:  {a, b}
  (void)engine.calibration(c);               // miss, evicts b: {c, a}
  EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, 3u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.entries, 2u);
  // a stayed resident (it was freshened by its hit), b must rebuild.
  EXPECT_EQ(engine.calibration(a).get(), cal_a.get());
  (void)engine.calibration(b);
  counters = engine.counters();
  EXPECT_EQ(counters.misses, 4u);
  EXPECT_EQ(counters.evictions, 2u);
  EXPECT_EQ(counters.entries, 2u);
}

TEST(DiagnosisEngine, TwoEntryLruOverFourSpecsHammeredByWorkers) {
  // The adversarial shape: 4 specs racing through a 2-entry LRU from 8 pool
  // workers. Whatever interleaving happens, every calibration handed out
  // must be the right instance, counters must balance, and the engine must
  // end with at most 2 resident entries.
  const FamilyCase hammer[] = {{"hypercube 5", 3},
                               {"crossed_cube 5", 3},
                               {"star 4", 3},
                               {"pancake 4", 3}};
  EngineOptions options;
  options.cache_capacity = 2;
  options.threads = 1;
  DiagnosisEngine engine(options);
  ThreadPool pool(8);
  constexpr std::size_t kCalls = 96;
  std::atomic<std::size_t> wrong{0}, failures{0};
  std::vector<std::shared_ptr<const Calibration>> held(kCalls);
  pool.parallel_for(kCalls, [&](unsigned, std::size_t i) {
    const FamilyCase& fc = hammer[(i * 2654435761u) % std::size(hammer)];
    try {
      auto cal = engine.calibration(fc.spec, fc.delta, ParentRule::kSpread);
      if (cal->spec != fc.spec || cal->delta() != fc.delta) ++wrong;
      held[i] = std::move(cal);  // outlive any eviction
    } catch (const std::exception&) {
      ++failures;
    }
  });
  ASSERT_EQ(failures.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.hits + counters.misses, kCalls);
  EXPECT_GE(counters.misses, std::size(hammer));  // each key built >= once
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LE(counters.entries, 2u);
  // Eviction safety: every handle held across evictions still diagnoses.
  for (const std::size_t i : {std::size_t{0}, kCalls - 1}) {
    const auto& cal = held[i];
    ASSERT_NE(cal, nullptr);
    Rng rng(17);
    const FaultSet faults(cal->graph.num_nodes(),
                          inject_uniform(cal->graph.num_nodes(), 2, rng));
    const LazyOracle oracle(cal->graph, faults, FaultyBehavior::kRandom, 5);
    Diagnoser diagnoser(graph_handle(cal), cal->partition);
    const DiagnosisResult r = diagnoser.diagnose(oracle);
    ASSERT_TRUE(r.success) << r.failure_reason;
    EXPECT_EQ(test::sorted(r.faults), test::sorted(faults.nodes()));
  }
}

TEST(DiagnosisEngine, SharedOwnershipOutlivesTheEngine) {
  std::unique_ptr<Diagnoser> diagnoser;
  {
    DiagnosisEngine engine;
    diagnoser = engine.make_diagnoser("hypercube 7");
  }  // engine (and its cache) destroyed; the bundle lives on
  test::Instance inst("hypercube 7");
  Rng rng(23);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 4, rng));
  const LazyOracle a(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 9);
  const LazyOracle b(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 9);
  const DiagnosisResult direct = Diagnoser(*inst.topo, inst.graph).diagnose(a);
  expect_bit_identical(direct, diagnoser->diagnose(b), 0);
}

TEST(DiagnosisEngine, DiagnoseFillsTheAmortisationSplit) {
  DiagnosisEngine engine;
  test::Instance inst("star 5");
  Rng rng(3);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 2, rng));
  const LazyOracle o1(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const LazyOracle o2(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const DiagnosisResult cold = engine.diagnose("star 5", o1);
  const DiagnosisResult warm = engine.diagnose("star 5", o2);
  ASSERT_TRUE(cold.success);
  ASSERT_TRUE(warm.success);
  EXPECT_FALSE(cold.calibration_reused);
  EXPECT_TRUE(warm.calibration_reused);
  EXPECT_GT(cold.setup_seconds, 0.0);
  EXPECT_GT(warm.setup_seconds, 0.0);
  EXPECT_GT(cold.diagnose_seconds, 0.0);
  // The direct path leaves the split untouched.
  const LazyOracle o3(inst.graph, faults, FaultyBehavior::kRandom, 1);
  Diagnoser direct(*inst.topo, inst.graph);
  const DiagnosisResult d = direct.diagnose(o3);
  EXPECT_FALSE(d.calibration_reused);
  EXPECT_EQ(d.setup_seconds, 0.0);
  EXPECT_GT(d.diagnose_seconds, 0.0);
}

TEST(DiagnosisEngine, UnsupportedBoundsAndBadSpecsThrow) {
  DiagnosisEngine engine;
  // Q5 at its default bound 5 cannot certify (the seed's failure_test
  // regime); the engine must surface the same DiagnosisUnsupportedError the
  // direct Diagnoser gives, and must not cache a broken entry.
  EXPECT_THROW((void)engine.calibration("hypercube 5"),
               DiagnosisUnsupportedError);
  EXPECT_THROW((void)engine.calibration("no_such_family 4"),
               std::invalid_argument);
  EXPECT_THROW((void)engine.calibration("hypercube junk"),
               std::invalid_argument);
  EXPECT_EQ(engine.counters().entries, 0u);
  EXPECT_EQ(engine.counters().misses, 0u);
  // The same instance still calibrates at a supported explicit bound.
  EXPECT_NO_THROW((void)engine.calibration("hypercube 5", 3,
                                           ParentRule::kSpread));
}

TEST(DiagnosisEngine, ImplicitModeIsBitIdenticalAndMaterialisesNoEdges) {
  EngineOptions csr_options;
  csr_options.graph_mode = GraphMode::kCsr;
  DiagnosisEngine csr_engine(csr_options);

  EngineOptions imp_options;
  imp_options.graph_mode = GraphMode::kImplicit;
  DiagnosisEngine imp_engine(imp_options);

  const char* spec = "hypercube 8";
  const auto csr_cal = csr_engine.calibration(spec);
  const auto imp_cal = imp_engine.calibration(spec);
  EXPECT_FALSE(csr_cal->is_implicit());
  EXPECT_TRUE(imp_cal->is_implicit());
  // The implicit calibration holds no CSR arrays at all.
  EXPECT_EQ(imp_cal->graph.num_nodes(), 0u);
  ASSERT_NE(imp_cal->implicit_view, nullptr);
  EXPECT_EQ(imp_cal->implicit_view->num_nodes(), csr_cal->graph.num_nodes());
  // Same certified plan, same calibration budget.
  EXPECT_EQ(csr_cal->partition.plan->description(),
            imp_cal->partition.plan->description());
  EXPECT_EQ(csr_cal->partition.calibration_lookups,
            imp_cal->partition.calibration_lookups);

  const test::Instance inst(spec);
  const std::size_t n = inst.graph.num_nodes();
  const ImplicitGraph iview(*inst.topo);
  for (std::size_t i = 0; i < 4; ++i) {
    Rng rng(500 + i);
    const FaultSet faults(n, inject_uniform(n, i, rng));
    const LazyOracle lazy(inst.graph, faults, FaultyBehavior::kRandom, i);
    const ImplicitLazyOracle ilazy(iview, faults, FaultyBehavior::kRandom, i);
    expect_bit_identical(csr_engine.diagnose(spec, lazy),
                         imp_engine.diagnose(spec, ilazy), i);
  }

  // A run of 64 table requests is one cohort on the CSR engine; the
  // implicit engine solves the same cohort scalar, since cohorts bitslice
  // through CSR row layout. Every answer must match.
  StreamOracles oracles;
  Rng rng(0x1A7E);
  std::vector<EngineRequest> requests;
  for (std::size_t k = 0; k < 64; ++k) {
    requests.push_back({spec, &oracles.table(inst.graph, csr_cal->delta(), k, rng),
                        nullptr, kNoNode});
  }
  const std::vector<DiagnosisResult> csr_served = csr_engine.serve(requests);
  const std::vector<DiagnosisResult> imp_served = imp_engine.serve(requests);
  ASSERT_EQ(csr_served.size(), requests.size());
  ASSERT_EQ(imp_served.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bit_identical(csr_served[i], imp_served[i], i);
  }
}

TEST(DiagnosisEngine, ImplicitOracleOverAnotherGraphThrowsBeforeAnyLookup) {
  // A lazy oracle over an implicit hypercube 14 has no CSR graph, but it
  // records its view's shape: sent as a larger hypercube, it must fail the
  // O(1) shape check instead of letting the solver index its fault set and
  // closed-form adjacency with ids past 2^14. kAuto serves both specs on
  // the implicit view.
  DiagnosisEngine engine;
  const std::unique_ptr<Topology> q14 = make_topology_from_spec("hypercube 14");
  const ImplicitGraph q14_view(*q14);
  const FaultSet q14_faults(q14_view.num_nodes(), {3, 77});
  const ImplicitLazyOracle stray(q14_view, q14_faults, FaultyBehavior::kRandom,
                                 1);
  const struct {
    const char* spec;
    const char* solver_shape;
  } sends[] = {{"hypercube 17", "131072 nodes of degree 17"},
               {"hypercube 20", "1048576 nodes of degree 20"}};
  for (const auto& send : sends) {
    SCOPED_TRACE(send.spec);
    try {
      (void)engine.diagnose(send.spec, stray);
      ADD_FAILURE() << "a mismatched implicit oracle was diagnosed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("a graph of 16384 nodes of degree 14"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("solver's graph has ") +
                          send.solver_shape),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(stray.lookups(), 0u);
  }

  // A matched implicit oracle still equals the direct Diagnoser.
  const std::unique_ptr<Topology> q17 = make_topology_from_spec("hypercube 17");
  const ImplicitGraph q17_view(*q17);
  Diagnoser direct(*q17, q17_view);
  const FaultSet q17_faults(q17_view.num_nodes(), {3, 77});
  const ImplicitLazyOracle matched(q17_view, q17_faults,
                                   FaultyBehavior::kRandom, 1);
  const DiagnosisResult routed = engine.diagnose("hypercube 17", matched);
  EXPECT_TRUE(routed.success) << routed.failure_reason;
  EXPECT_EQ(routed.faults, (std::vector<Node>{3, 77}));
  expect_bit_identical(direct.diagnose(matched), routed, 0);
}

TEST(DiagnosisEngine, AutoModeKeepsSmallInstancesOnCsr) {
  // kAuto flips to implicit only at kImplicitAutoNodeThreshold (2^17)
  // nodes; everything in the test-sized range stays CSR so the cohort
  // path keeps working by default.
  DiagnosisEngine engine;  // graph_mode = kAuto
  const auto cal = engine.calibration("hypercube 8");
  EXPECT_FALSE(cal->is_implicit());
  EXPECT_GT(cal->graph.num_nodes(), 0u);
  TopologyInfo big;
  big.num_nodes = std::uint64_t{1} << 20;
  big.degree = 20;
  EXPECT_TRUE(resolve_implicit_mode(GraphMode::kAuto, big));
  big.degree = 65;  // past the implicit ceiling: stays CSR even at scale
  EXPECT_FALSE(resolve_implicit_mode(GraphMode::kAuto, big));
}

// ---- Explicit invalidation -------------------------------------------------

TEST(DiagnosisEngine, InvalidateRetiresEveryVariantOfASpec) {
  DiagnosisEngine engine;
  // Two calibration variants of one spec (distinct cache keys) plus an
  // unrelated spec that must survive the targeted invalidation.
  (void)engine.calibration("hypercube 5", 3, ParentRule::kSpread, true);
  (void)engine.calibration("hypercube 5", 3, ParentRule::kSpread, false);
  (void)engine.calibration("star 4", 3, ParentRule::kSpread);
  EXPECT_EQ(engine.counters().entries, 3u);

  // Canonicalisation: an odd spelling retires the same stem, all variants.
  EXPECT_EQ(engine.invalidate(" hypercube  05"), 2u);
  EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.entries, 1u);
  EXPECT_EQ(counters.evictions_explicit, 2u);
  EXPECT_EQ(counters.evictions_lru, 0u);
  EXPECT_EQ(counters.evictions, 2u);

  // Unknown specs throw instead of silently matching nothing.
  EXPECT_THROW((void)engine.invalidate("not_a_topology 3"),
               std::invalid_argument);

  EXPECT_EQ(engine.invalidate_all(), 1u);
  counters = engine.counters();
  EXPECT_EQ(counters.entries, 0u);
  EXPECT_EQ(counters.evictions_explicit, 3u);

  // The next request is a plain rebuild, not an error.
  EXPECT_NE(engine.calibration("hypercube 5", 3, ParentRule::kSpread), nullptr);
}

TEST(DiagnosisEngine, EvictionCountersSplitLruFromExplicit) {
  EngineOptions options;
  options.cache_capacity = 1;
  DiagnosisEngine engine(options);
  (void)engine.calibration("hypercube 5", 3, ParentRule::kSpread);
  (void)engine.calibration("star 4", 3, ParentRule::kSpread);  // LRU evicts
  EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.evictions_lru, 1u);
  EXPECT_EQ(counters.evictions_explicit, 0u);

  EXPECT_EQ(engine.invalidate_all(), 1u);
  counters = engine.counters();
  EXPECT_EQ(counters.evictions_lru, 1u);
  EXPECT_EQ(counters.evictions_explicit, 1u);
  EXPECT_EQ(counters.evictions,
            counters.evictions_lru + counters.evictions_explicit);
  EXPECT_EQ(counters.entries, 0u);
}

TEST(DiagnosisEngine, InvalidationRacingServeStaysBitIdentical) {
  // serve() under a hammering invalidate_all(): eviction only decides where
  // calibrations live (shared_ptr holders keep evicted bundles alive), so
  // every served result must stay bit-identical to the direct diagnosis.
  EngineOptions options;
  options.threads = 2;
  options.diagnoser.delta = 3;
  DiagnosisEngine engine(options);
  const std::shared_ptr<const Calibration> cal =
      engine.calibration("hypercube 5");
  const std::size_t n = cal->graph.num_nodes();
  Rng rng(0xCAFE);
  const FaultSet faults(n, inject_uniform(n, 2, rng));

  std::vector<std::unique_ptr<LazyOracle>> oracles;
  std::vector<EngineRequest> requests;
  for (int i = 0; i < 12; ++i) {
    oracles.push_back(std::make_unique<LazyOracle>(
        cal->graph, faults, FaultyBehavior::kRandom, 9));
    requests.push_back({"hypercube 5", oracles.back().get(), nullptr, kNoNode});
  }
  Diagnoser direct(cal->graph, cal->partition, options.diagnoser);
  const LazyOracle reference_oracle(cal->graph, faults, FaultyBehavior::kRandom,
                                    9);
  const DiagnosisResult expected = direct.diagnose(reference_oracle);

  std::atomic<bool> stop{false};
  std::atomic<unsigned> passes{0};
  std::thread invalidator([&] {
    while (!stop.load()) {
      (void)engine.invalidate_all();
      passes.fetch_add(1);
    }
  });
  // A busy host may first schedule the invalidator after the serve rounds
  // are done; its first pass evicts the calibration built above, so serving
  // only after it completes guarantees at least one explicit eviction.
  while (passes.load() == 0) std::this_thread::yield();
  for (int round = 0; round < 8; ++round) {
    const std::vector<DiagnosisResult> results = engine.serve(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_bit_identical(expected, results[i], i);
    }
  }
  stop.store(true);
  invalidator.join();
  EXPECT_GT(engine.counters().evictions_explicit, 0u);
}

TEST(ParentRuleNames, RoundTripAndAliases) {
  for (const ParentRule rule : kAllParentRules) {
    EXPECT_EQ(parent_rule_from_string(parent_rule_to_string(rule)), rule);
  }
  EXPECT_EQ(parent_rule_from_string("least_first"), ParentRule::kLeastFirst);
  EXPECT_EQ(parent_rule_from_string("hash_spread"), ParentRule::kHashSpread);
  EXPECT_THROW((void)parent_rule_from_string("fastest"),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmdiag
