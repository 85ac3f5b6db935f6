// The directed (PMC/BGM) solver stack: DirectedDiagnoser vs the
// DirectedExactSolver ground truth across models, behaviours and both
// fault regimes; the BGM local-diagnosis rules (soundness + the
// neighbourhood look-up bound); and the engine integration — model-tagged
// cache entries, diagnose_directed, the local fast path, and serve()'s
// directed routing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "baselines/directed_exact.hpp"
#include "core/directed_diagnoser.hpp"
#include "engine/calibration.hpp"
#include "engine/engine.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

using test::Instance;

constexpr DiagnosisModel kDirectedModels[] = {DiagnosisModel::kPMC,
                                              DiagnosisModel::kBGM};

/// The BGM local rules read at most every arc touching u's closed
/// neighbourhood: u's incoming run, u's outgoing run, and each
/// neighbour's other incoming arcs.
std::uint64_t local_lookup_bound(const Graph& g, Node u) {
  std::uint64_t bound = 2 * std::uint64_t{g.degree(u)};
  for (const Node v : g.neighbors(u)) bound += g.degree(v) - 1;
  return bound;
}

TEST(DirectedDiagnoser, AgreesWithExactSolverEverywhere) {
  // The driver's deductions hold in every consistent candidate and its
  // residue search is exhaustive, so it must agree with the exact solver's
  // success/faults/failure_reason verbatim — within the promise and beyond
  // it, for every behaviour, on every model.
  for (const std::string spec : {"hypercube 4", "star 4", "crossed_cube 4"}) {
    const Instance inst(spec);
    const unsigned delta = inst.topo->default_fault_bound();
    for (const DiagnosisModel model : kDirectedModels) {
      DirectedDiagnoser driver(inst.graph, delta);
      for (const FaultyBehavior behavior : kAllFaultyBehaviors) {
        for (std::size_t count = 0; count <= delta + 2; ++count) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(spec + " " + diagnosis_model_to_string(model) + "/" +
                         to_string(behavior) + " count " +
                         std::to_string(count) + " seed " +
                         std::to_string(seed));
            Rng rng(seed * 977 + count);
            const FaultSet faults(
                inst.graph.num_nodes(),
                inject_uniform(inst.graph.num_nodes(), count, rng));
            const DirectedLazyOracle oracle(inst.graph, faults, model,
                                            behavior, seed);
            DirectedExactSolver exact(inst.graph, oracle, delta);
            const DiagnosisResult truth = exact.diagnose();
            const DiagnosisResult got = driver.diagnose(oracle);
            EXPECT_EQ(got.success, truth.success);
            EXPECT_EQ(got.faults, truth.faults);
            EXPECT_EQ(got.failure_reason, truth.failure_reason);
            // Both read the complete syndrome, one look-up per arc.
            EXPECT_EQ(got.lookups, truth.lookups);
            // Within the promise a unique answer must be the injected set.
            if (count <= delta && got.success) {
              EXPECT_EQ(got.faults, test::sorted(faults.nodes()));
            }
          }
        }
      }
    }
  }
}

TEST(DirectedDiagnoser, FaultFreeSystemDiagnosesEmpty) {
  const Instance inst("hypercube 4");
  DirectedDiagnoser driver(inst.graph, inst.topo->default_fault_bound());
  for (const DiagnosisModel model : kDirectedModels) {
    const FaultSet none(inst.graph.num_nodes(), {});
    const DirectedLazyOracle oracle(inst.graph, none, model,
                                    FaultyBehavior::kRandom, 1);
    const DiagnosisResult r = driver.diagnose(oracle);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.faults.empty());
  }
}

TEST(DirectedDiagnoser, GuardsRejectMisuse) {
  const Instance inst("hypercube 4");
  const Instance small("star 4");
  const FaultSet faults(inst.graph.num_nodes(), {1});
  // MM* oracles have no business here (and vice versa for Diagnoser).
  const DirectedLazyOracle mm_tagged(inst.graph, faults,
                                     DiagnosisModel::kMMStar,
                                     FaultyBehavior::kAllZero, 1);
  DirectedDiagnoser driver(inst.graph, 4);
  EXPECT_THROW(static_cast<void>(driver.diagnose(mm_tagged)),
               std::invalid_argument);
  EXPECT_THROW(DirectedExactSolver(inst.graph, mm_tagged, 4),
               std::invalid_argument);
  // A different-sized graph cannot be the one this driver calibrated for.
  const FaultSet other(small.graph.num_nodes(), {1});
  const DirectedLazyOracle mismatched(small.graph, other,
                                      DiagnosisModel::kPMC,
                                      FaultyBehavior::kAllZero, 1);
  EXPECT_THROW(static_cast<void>(driver.diagnose(mismatched)),
               std::invalid_argument);
  // delta beyond the node count is a configuration error.
  EXPECT_THROW(DirectedDiagnoser(inst.graph, 17), std::invalid_argument);
}

// --------------------------------------------------------------------------
// BGM local diagnosis.
// --------------------------------------------------------------------------

TEST(BgmLocalDiagnosis, SoundInBothRegimesAndWithinTheLookupBound) {
  // The three local rules are unconditionally sound — they certify, never
  // guess — so a definite answer must match the injected truth even when
  // the fault set is far beyond delta.
  const Instance inst("hypercube 4");
  const std::size_t n = inst.graph.num_nodes();
  for (const FaultyBehavior behavior : kAllFaultyBehaviors) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{2},
                                    std::size_t{4}, std::size_t{9}}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(to_string(behavior) + " count " + std::to_string(count) +
                     " seed " + std::to_string(seed));
        Rng rng(seed * 31 + count);
        const FaultSet faults(n, inject_uniform(n, count, rng));
        const DirectedLazyOracle oracle(inst.graph, faults,
                                        DiagnosisModel::kBGM, behavior, seed);
        for (Node u = 0; u < n; ++u) {
          const LocalDiagnosisResult r =
              bgm_local_diagnose(inst.graph, oracle, u);
          EXPECT_LE(r.lookups, local_lookup_bound(inst.graph, u));
          if (r.status == LocalDiagnosisStatus::kHealthy) {
            EXPECT_FALSE(faults.is_faulty(u));
          } else if (r.status == LocalDiagnosisStatus::kFaulty) {
            EXPECT_TRUE(faults.is_faulty(u));
          }
        }
      }
    }
  }
}

TEST(BgmLocalDiagnosis, ReadsUnderATenthOfAGlobalSolve) {
  // The reason the engine serves local requests ahead of global solves: on
  // hypercube 10 a request reads inside its 2-ball (at most 110 arcs),
  // while a global solve reads the whole syndrome. Counted look-ups, not
  // wall time, so the margin cannot flake with the host's load.
  const Instance inst("hypercube 10");
  const std::size_t n = inst.graph.num_nodes();
  constexpr unsigned kDelta = 10;
  DirectedDiagnoser global(inst.graph, kDelta);
  for (const FaultyBehavior behavior : kAllFaultyBehaviors) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{kDelta}}) {
      SCOPED_TRACE(to_string(behavior) + " count " + std::to_string(count));
      Rng rng(count * 17 + 5);
      const FaultSet faults(n, inject_uniform(n, count, rng));
      const DirectedLazyOracle oracle(inst.graph, faults,
                                      DiagnosisModel::kBGM, behavior, 3);
      const std::uint64_t global_lookups = global.diagnose(oracle).lookups;
      for (Node u = 0; u < n; ++u) {
        EXPECT_LT(10 * bgm_local_diagnose(inst.graph, oracle, u).lookups,
                  global_lookups)
            << "u=" << u;
      }
    }
  }
}

TEST(BgmLocalDiagnosis, FaultFreeAnswersHealthyInOneLookup) {
  // All arcs are 0, so rule 1 fires on the very first incoming read.
  const Instance inst("star 4");
  const FaultSet none(inst.graph.num_nodes(), {});
  const DirectedLazyOracle oracle(inst.graph, none, DiagnosisModel::kBGM,
                                  FaultyBehavior::kRandom, 1);
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    const LocalDiagnosisResult r = bgm_local_diagnose(inst.graph, oracle, u);
    EXPECT_EQ(r.status, LocalDiagnosisStatus::kHealthy);
    EXPECT_EQ(r.lookups, 1u);
  }
}

TEST(BgmLocalDiagnosis, GuardsRejectMisuse) {
  const Instance inst("star 4");
  const FaultSet none(inst.graph.num_nodes(), {});
  const DirectedLazyOracle pmc(inst.graph, none, DiagnosisModel::kPMC,
                               FaultyBehavior::kRandom, 1);
  EXPECT_THROW(static_cast<void>(bgm_local_diagnose(inst.graph, pmc, 0)),
               std::invalid_argument);
  const DirectedLazyOracle bgm(inst.graph, none, DiagnosisModel::kBGM,
                               FaultyBehavior::kRandom, 1);
  EXPECT_THROW(
      static_cast<void>(bgm_local_diagnose(
          inst.graph, bgm, static_cast<Node>(inst.graph.num_nodes()))),
      std::invalid_argument);
}

// --------------------------------------------------------------------------
// Engine integration.
// --------------------------------------------------------------------------

TEST(DirectedEngine, ModelTaggedCacheEntriesAreDistinct) {
  DiagnosisEngine engine;
  // delta 3 is what Q5 certifies under kSpread (the fuzz catalog's entry);
  // the directed bundles share every key component except the model tag.
  const auto mm = engine.calibration("hypercube 5", 3, ParentRule::kSpread);
  const auto pmc = engine.calibration("hypercube 5", 3, ParentRule::kSpread,
                                      true, DiagnosisModel::kPMC);
  const auto bgm = engine.calibration("hypercube 5", 3, ParentRule::kSpread,
                                      true, DiagnosisModel::kBGM);
  EXPECT_EQ(mm->model, DiagnosisModel::kMMStar);
  EXPECT_EQ(pmc->model, DiagnosisModel::kPMC);
  EXPECT_EQ(bgm->model, DiagnosisModel::kBGM);
  EXPECT_TRUE(pmc->is_directed());
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.misses, 3u);
  EXPECT_EQ(counters.entries, 3u);
  // Repeat hits, never rebuilds.
  const auto again = engine.calibration("hypercube 5", 3, ParentRule::kSpread,
                                        true, DiagnosisModel::kPMC);
  EXPECT_EQ(again.get(), pmc.get());
  EXPECT_EQ(engine.counters().hits, 1u);
}

TEST(DirectedEngine, DirectedCalibrationsRefuseTheImplicitView) {
  EXPECT_THROW(static_cast<void>(build_calibration(
                   make_topology_from_spec("hypercube 7"), 0,
                   ParentRule::kSpread, true, GraphMode::kImplicit,
                   DiagnosisModel::kPMC)),
               std::invalid_argument);
  // Through the engine, kAuto resolves directed bundles to CSR instead of
  // throwing — even on an implicit-capable instance.
  EngineOptions options;
  options.graph_mode = GraphMode::kAuto;
  DiagnosisEngine engine(options);
  const auto cal = engine.calibration("hypercube 7", 0, ParentRule::kSpread,
                                      true, DiagnosisModel::kPMC);
  EXPECT_GT(cal->graph.num_nodes(), 0u);
}

TEST(DirectedEngine, DiagnoseDirectedMatchesTheStandaloneDriver) {
  const Instance inst("hypercube 4");
  DiagnosisEngine engine;
  for (const DiagnosisModel model : kDirectedModels) {
    const FaultSet faults(inst.graph.num_nodes(), {3, 9});
    const DirectedLazyOracle oracle(inst.graph, faults, model,
                                    FaultyBehavior::kAntiDiagnostic, 5);
    const DiagnosisResult via_engine =
        engine.diagnose_directed("hypercube 4", oracle);
    DirectedDiagnoser driver(inst.graph, inst.topo->default_fault_bound());
    const DiagnosisResult direct = driver.diagnose(oracle);
    EXPECT_EQ(via_engine.success, direct.success);
    EXPECT_EQ(via_engine.faults, direct.faults);
    EXPECT_EQ(via_engine.lookups, direct.lookups);
  }
}

TEST(DirectedEngine, LocalDiagnoseUsesTheFastPathAndFallsBack) {
  const Instance inst("hypercube 4");
  DiagnosisEngine engine;
  // Definite local answers: fast path, neighbourhood-bounded look-ups.
  const FaultSet faults(inst.graph.num_nodes(), {3});
  const DirectedLazyOracle oracle(inst.graph, faults, DiagnosisModel::kBGM,
                                  FaultyBehavior::kRandom, 7);
  const DiagnosisResult healthy = engine.local_diagnose("hypercube 4",
                                                        oracle, 0);
  ASSERT_TRUE(healthy.success);
  EXPECT_TRUE(healthy.faults.empty());
  EXPECT_TRUE(healthy.used_local_fast_path);
  EXPECT_LE(healthy.lookups, local_lookup_bound(inst.graph, 0));
  const DiagnosisResult faulty = engine.local_diagnose("hypercube 4",
                                                       oracle, 3);
  ASSERT_TRUE(faulty.success);
  EXPECT_EQ(faulty.faults, std::vector<Node>{3});
  EXPECT_TRUE(faulty.used_local_fast_path);

  // An all-ones syndrome defeats every local rule (no 0 arc anywhere), so
  // the engine falls back to the global solve — which here must fail,
  // since no <= delta fault set explains healthy pairs alarming at each
  // other.
  DirectedSyndrome all_ones(inst.graph);
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    for (unsigned p = 0; p < inst.graph.degree(u); ++p) {
      all_ones.set_test(u, p, true);
    }
  }
  const DirectedTableOracle ones_oracle(inst.graph, all_ones,
                                        DiagnosisModel::kBGM);
  const DiagnosisResult fallback =
      engine.local_diagnose("hypercube 4", ones_oracle, 0);
  EXPECT_FALSE(fallback.used_local_fast_path);
  EXPECT_FALSE(fallback.success);

  // Guards surface as exceptions, same as the standalone API.
  const DirectedLazyOracle pmc(inst.graph, faults, DiagnosisModel::kPMC,
                               FaultyBehavior::kRandom, 7);
  EXPECT_THROW(
      static_cast<void>(engine.local_diagnose("hypercube 4", pmc, 0)),
      std::invalid_argument);
}

TEST(DirectedEngine, ServeRoutesDirectedAndLocalRequests) {
  // Q7 certifies at its default bound, so the MM* request can go through
  // serve()'s default calibration; CSR because the MM oracle is a table.
  const Instance inst("hypercube 7");
  EngineOptions options;
  options.graph_mode = GraphMode::kCsr;
  DiagnosisEngine engine(options);
  const FaultSet faults(inst.graph.num_nodes(), {5, 12});
  const FaultSet none(inst.graph.num_nodes(), {});

  // One MM* request, one PMC global, one BGM global, two BGM local, plus
  // the malformed combinations, all down one stream.
  const Syndrome mm_syndrome =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 3);
  const TableOracle mm_oracle(inst.graph, mm_syndrome);
  const DirectedLazyOracle pmc_oracle(inst.graph, faults,
                                      DiagnosisModel::kPMC,
                                      FaultyBehavior::kRandom, 3);
  const DirectedLazyOracle bgm_oracle(inst.graph, faults,
                                      DiagnosisModel::kBGM,
                                      FaultyBehavior::kAllZero, 3);
  std::vector<EngineRequest> requests;
  requests.push_back({"hypercube 7", &mm_oracle, nullptr, kNoNode});
  requests.push_back({"hypercube 7", nullptr, &pmc_oracle, kNoNode});
  requests.push_back({"hypercube 7", nullptr, &bgm_oracle, kNoNode});
  requests.push_back({"hypercube 7", nullptr, &bgm_oracle, Node{5}});
  requests.push_back({"hypercube 7", nullptr, &bgm_oracle, Node{0}});
  requests.push_back({"hypercube 7", &mm_oracle, &pmc_oracle, kNoNode});
  requests.push_back({"hypercube 7", &mm_oracle, nullptr, Node{0}});
  requests.push_back({"hypercube 7", nullptr, nullptr, kNoNode});
  const std::vector<DiagnosisResult> results = engine.serve(requests);
  ASSERT_EQ(results.size(), requests.size());

  const std::vector<Node> expected = {5, 12};
  ASSERT_TRUE(results[0].success);
  EXPECT_EQ(results[0].faults, expected);
  ASSERT_TRUE(results[1].success);
  EXPECT_EQ(results[1].faults, expected);
  ASSERT_TRUE(results[2].success);
  EXPECT_EQ(results[2].faults, expected);
  ASSERT_TRUE(results[3].success);
  EXPECT_EQ(results[3].faults, std::vector<Node>{5});
  EXPECT_TRUE(results[3].used_local_fast_path);
  ASSERT_TRUE(results[4].success);
  EXPECT_TRUE(results[4].faults.empty());
  EXPECT_TRUE(results[4].used_local_fast_path);
  // Malformed requests fail in place without poisoning the stream.
  EXPECT_FALSE(results[5].success);
  EXPECT_FALSE(results[6].success);
  EXPECT_FALSE(results[7].success);
}

}  // namespace
}  // namespace mmdiag
