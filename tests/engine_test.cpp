// DiagnosisEngine: thread-safe LRU calibration cache semantics (single
// build per key under racing misses, LRU eviction, eviction safety through
// shared ownership) and bit-identical equivalence with directly constructed
// Diagnosers across every registry family.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/diagnoser.hpp"
#include "engine/engine.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/injector.hpp"
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
  std::unique_ptr<BatchDiagnoser> batch;
  {
    DiagnosisEngine engine;
    diagnoser = engine.make_diagnoser("hypercube 7");
    batch = engine.make_batch_diagnoser("hypercube 7", 2);
  }  // engine (and its cache) destroyed; the bundles live on
  test::Instance inst("hypercube 7");
  Rng rng(23);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 4, rng));
  const LazyOracle a(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 9);
  const LazyOracle b(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 9);
  const DiagnosisResult direct = Diagnoser(*inst.topo, inst.graph).diagnose(a);
  expect_bit_identical(direct, diagnoser->diagnose(b), 0);
  const LazyOracle c(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 9);
  const BatchResult batched = batch->diagnose_all({&c});
  ASSERT_EQ(batched.results.size(), 1u);
  expect_bit_identical(direct, batched.results[0], 1);
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

  // Batch lanes address syndrome rows through the materialised CSR layout.
  EXPECT_THROW((void)imp_engine.make_batch_diagnoser(spec),
               std::invalid_argument);
  EXPECT_NO_THROW((void)csr_engine.make_batch_diagnoser(spec));
}

TEST(DiagnosisEngine, AutoModeKeepsSmallInstancesOnCsr) {
  // kAuto flips to implicit only at kImplicitAutoNodeThreshold (2^17)
  // nodes; everything in the test-sized range stays CSR so the batch and
  // cohort paths keep working by default.
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
