// BatchDiagnoser: thread-pool correctness and bit-identical equivalence
// with the sequential Diagnoser across topology families, batch sizes, and
// thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_diagnoser.hpp"
#include "core/cohort_planner.hpp"
#include "core/diagnoser.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<unsigned> lane_of(kCount, ~0u);
  pool.parallel_for(kCount, [&](unsigned lane, std::size_t i) {
    // No gtest calls on worker threads; record and assert afterwards.
    lane_of[i] = lane;
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    ASSERT_LT(lane_of[i], pool.size()) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](unsigned lane, std::size_t i) {
    EXPECT_EQ(lane, 0u);
    order.push_back(i);  // no synchronisation needed: inline execution
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(3);
  pool.parallel_for(0, [&](unsigned, std::size_t) { FAIL(); });
}

TEST(ThreadPool, FewerItemsThanLanes) {
  // Lanes beyond the item count must park without touching any index and
  // without deadlocking the join.
  ThreadPool pool(8);
  for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}}) {
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&](unsigned lane, std::size_t i) {
      (void)lane;
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ThreadPool, SingleItemManyLanes) {
  ThreadPool pool(6);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    pool.parallel_for(1, [&](unsigned, std::size_t i) {
      ASSERT_EQ(i, 0u);
      ++hits;
    });
    ASSERT_EQ(hits.load(), 1);
  }
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  ThreadPool pool(4);
  const auto boom = [](unsigned, std::size_t i) {
    if (i == 37) throw std::runtime_error("lane exploded");
  };
  EXPECT_THROW(pool.parallel_for(100, boom), std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(50, [&](unsigned, std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 50u);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(101, [&](unsigned, std::size_t i) { sum += i; });
    ASSERT_EQ(sum.load(), 101u * 100u / 2u);
  }
}

// ---------------------------------------------------------------------------

/// A deterministic mixed batch over `spec`: fault counts 0..delta cycling,
/// all four faulty-tester behaviours.
struct TestBatch {
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

TestBatch make_batch(const test::Instance& inst, unsigned delta,
                     std::size_t count) {
  TestBatch batch;
  batch.faults.reserve(count);
  batch.oracles.reserve(count);
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(1000 + i);
    batch.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), i % (delta + 1), rng));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.oracles.emplace_back(inst.graph, batch.faults[i], kBehaviors[i % 4],
                               i);
  }
  for (const LazyOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

void expect_equivalent(const DiagnosisResult& seq, const DiagnosisResult& bat,
                       std::size_t item) {
  ASSERT_EQ(seq.success, bat.success) << "item " << item;
  ASSERT_EQ(seq.faults, bat.faults) << "item " << item;
  ASSERT_EQ(seq.lookups, bat.lookups) << "item " << item;
  ASSERT_EQ(seq.probes, bat.probes) << "item " << item;
  ASSERT_EQ(seq.certified_component, bat.certified_component)
      << "item " << item;
}

TEST(BatchDiagnoser, BitIdenticalToSequentialAcrossFamilies) {
  for (const char* spec : {"hypercube 7", "star 5", "kary_ncube 4 4"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    Diagnoser sequential(*inst.topo, inst.graph);
    const TestBatch batch = make_batch(inst, sequential.delta(), 12);

    std::vector<DiagnosisResult> truth;
    for (const SyndromeOracle* oracle : batch.ptrs) {
      truth.push_back(sequential.diagnose(*oracle));
    }

    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      BatchOptions options;
      options.threads = threads;
      BatchDiagnoser engine(*inst.topo, inst.graph, options);
      EXPECT_EQ(engine.threads(), threads);
      EXPECT_EQ(engine.delta(), sequential.delta());
      const BatchResult result = engine.diagnose_all(batch.ptrs);
      ASSERT_EQ(result.results.size(), batch.ptrs.size());
      std::uint64_t lookups = 0;
      std::size_t succeeded = 0;
      for (std::size_t i = 0; i < truth.size(); ++i) {
        expect_equivalent(truth[i], result.results[i], i);
        lookups += truth[i].lookups;
        succeeded += truth[i].success ? 1 : 0;
      }
      EXPECT_EQ(result.total_lookups, lookups);
      EXPECT_EQ(result.succeeded, succeeded);
    }
  }
}

TEST(BatchDiagnoser, EmptyAndSingletonBatches) {
  test::Instance inst("hypercube 7");
  BatchOptions options;
  options.threads = 3;
  BatchDiagnoser engine(*inst.topo, inst.graph, options);

  const BatchResult empty = engine.diagnose_all(
      std::vector<const SyndromeOracle*>{});
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.succeeded, 0u);
  EXPECT_EQ(empty.total_lookups, 0u);

  Rng rng(7);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 3, rng));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 1);
  const BatchResult one = engine.diagnose_all({&oracle});
  ASSERT_EQ(one.results.size(), 1u);
  ASSERT_TRUE(one.results[0].success) << one.results[0].failure_reason;
  EXPECT_EQ(test::sorted(one.results[0].faults), test::sorted(faults.nodes()));
  EXPECT_EQ(one.succeeded, 1u);
  EXPECT_GT(one.total_lookups, 0u);
}

TEST(BatchDiagnoser, SyndromeVectorConvenienceOverload) {
  test::Instance inst("star 5");
  Diagnoser sequential(*inst.topo, inst.graph);
  std::vector<Syndrome> syndromes;
  std::vector<FaultSet> faults;
  for (std::size_t i = 0; i < 6; ++i) {
    Rng rng(50 + i);
    faults.emplace_back(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), i % 4, rng));
    syndromes.push_back(generate_syndrome(inst.graph, faults.back(),
                                          FaultyBehavior::kRandom, i));
  }
  BatchOptions options;
  options.threads = 2;
  BatchDiagnoser engine(*inst.topo, inst.graph, options);
  const BatchResult result = engine.diagnose_all(syndromes);
  ASSERT_EQ(result.results.size(), syndromes.size());
  for (std::size_t i = 0; i < syndromes.size(); ++i) {
    const TableOracle oracle(inst.graph, syndromes[i]);
    expect_equivalent(sequential.diagnose(oracle), result.results[i], i);
  }
}

TEST(BatchDiagnoser, SharedPartitionConstructor) {
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  BatchOptions options;
  options.threads = 2;
  // Adopt the sequential diagnoser's partition instead of re-certifying.
  BatchDiagnoser engine(inst.graph, sequential.partition(), options);
  EXPECT_EQ(engine.partition().plan.get(), sequential.partition().plan.get());

  const TestBatch batch = make_batch(inst, sequential.delta(), 5);
  const BatchResult result = engine.diagnose_all(batch.ptrs);
  for (std::size_t i = 0; i < batch.ptrs.size(); ++i) {
    expect_equivalent(sequential.diagnose(*batch.ptrs[i]), result.results[i],
                      i);
  }
}

TEST(BatchDiagnoser, FailedItemsKeepTheirCostAndDoNotPoisonTheBatch) {
  // One undiagnosable syndrome (every probed seed faulty, all-one testers)
  // mixed into healthy traffic: its slot reports failure with nonzero
  // look-ups, every other slot is unaffected.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  const PartitionPlan& plan = *sequential.partition().plan;
  std::vector<Node> seeds;
  for (std::uint32_t c = 0; c < 8; ++c) seeds.push_back(plan.seed_of(c));
  const FaultSet poisoned(inst.graph.num_nodes(), seeds);  // |F| = 8 > 7
  Rng rng(3);
  const FaultSet healthy(inst.graph.num_nodes(),
                         inject_uniform(inst.graph.num_nodes(), 2, rng));

  const LazyOracle bad(inst.graph, poisoned, FaultyBehavior::kAllOne, 0);
  // Two distinct oracles over the same fault set: each oracle may be
  // consulted by exactly one lane (the look-up counter is unsynchronised).
  const LazyOracle good_a(inst.graph, healthy, FaultyBehavior::kRandom, 1);
  const LazyOracle good_b(inst.graph, healthy, FaultyBehavior::kRandom, 1);
  BatchOptions options;
  options.threads = 2;
  BatchDiagnoser engine(*inst.topo, inst.graph, options);
  const BatchResult result = engine.diagnose_all({&good_a, &bad, &good_b});

  ASSERT_EQ(result.results.size(), 3u);
  EXPECT_EQ(result.succeeded, 2u);
  EXPECT_FALSE(result.results[1].success);
  EXPECT_GT(result.results[1].lookups, 0u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(result.results[i].success);
    EXPECT_EQ(test::sorted(result.results[i].faults),
              test::sorted(healthy.nodes()));
  }
}

/// The same deterministic workload as make_batch, materialised as
/// syndrome tables so the bitsliced cohort path engages.
struct TableTestBatch {
  std::vector<FaultSet> faults;
  std::vector<Syndrome> syndromes;
  std::vector<TableOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

TableTestBatch make_table_batch(const test::Instance& inst, unsigned delta,
                                std::size_t count) {
  TableTestBatch batch;
  batch.faults.reserve(count);
  batch.syndromes.reserve(count);
  batch.oracles.reserve(count);
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(1000 + i);
    batch.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), i % (delta + 1), rng));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.syndromes.push_back(generate_syndrome(inst.graph, batch.faults[i],
                                                kBehaviors[i % 4], i));
    batch.oracles.emplace_back(inst.graph, batch.syndromes.back());
  }
  for (const TableOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

TEST(BatchDiagnoser, BitslicedCohortsMatchScalarAtEveryWidth) {
  // Batch sizes around the planner's cuts: 15, 16 and 63 (below 64, all
  // scalar), 64 (one cohort), 65 (two of 33 and 32), 70 (two of 35) and
  // 130 (three of 44, 43 and 43). Each is checked against the sequential
  // Diagnoser.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  for (const std::size_t count :
       {std::size_t{15}, std::size_t{16}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{70}, std::size_t{130}}) {
    SCOPED_TRACE(count);
    const TableTestBatch batch =
        make_table_batch(inst, sequential.delta(), count);

    std::vector<DiagnosisResult> truth;
    std::uint64_t truth_lookups = 0;
    std::size_t truth_succeeded = 0;
    for (const SyndromeOracle* oracle : batch.ptrs) {
      truth.push_back(sequential.diagnose(*oracle));
      truth_lookups += truth.back().lookups;
      truth_succeeded += truth.back().success ? 1 : 0;
    }

    BatchOptions options;
    options.threads = 2;
    BatchDiagnoser engine(*inst.topo, inst.graph, options);
    const BatchResult sliced = engine.diagnose_all(batch.ptrs);

    ASSERT_EQ(sliced.results.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      expect_equivalent(truth[i], sliced.results[i], i);
    }
    EXPECT_EQ(sliced.total_lookups, truth_lookups);
    EXPECT_EQ(sliced.succeeded, truth_succeeded);
  }
}

TEST(BatchDiagnoser, MixedLazyAndTableBatchScattersCorrectly) {
  // 64 tables interleaved with lazy oracles: the tables form one cohort,
  // the lazies stay scalar, and every result lands back at its original
  // index.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  const TableTestBatch tables =
      make_table_batch(inst, sequential.delta(), 64);
  const TestBatch lazies = make_batch(inst, sequential.delta(), 9);

  std::vector<const SyndromeOracle*> mixed;
  std::size_t t = 0, l = 0;
  while (t < tables.ptrs.size() || l < lazies.ptrs.size()) {
    if (t < tables.ptrs.size()) mixed.push_back(tables.ptrs[t++]);
    if (l < lazies.ptrs.size()) mixed.push_back(lazies.ptrs[l++]);
  }

  std::vector<DiagnosisResult> truth;
  for (const SyndromeOracle* oracle : mixed) {
    truth.push_back(sequential.diagnose(*oracle));
  }

  BatchOptions options;
  options.threads = 3;
  BatchDiagnoser engine(*inst.topo, inst.graph, options);
  const BatchResult result = engine.diagnose_all(mixed);
  ASSERT_EQ(result.results.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    expect_equivalent(truth[i], result.results[i], i);
    ASSERT_EQ(truth[i].final_members, result.results[i].final_members) << i;
  }
}

TEST(BatchDiagnoser, SingleItemCohortlessBatchStillWorks) {
  // One table oracle: far below cohort width, must take the scalar path
  // without stalling the pool.
  test::Instance inst("star 5");
  Diagnoser sequential(*inst.topo, inst.graph);
  const TableTestBatch batch = make_table_batch(inst, sequential.delta(), 1);
  BatchOptions options;
  options.threads = 4;
  BatchDiagnoser engine(*inst.topo, inst.graph, options);
  const BatchResult result = engine.diagnose_all(batch.ptrs);
  ASSERT_EQ(result.results.size(), 1u);
  expect_equivalent(sequential.diagnose(*batch.ptrs[0]), result.results[0], 0);
}

TEST(BatchDiagnoser, AdoptingPathRejectsConflictingDelta) {
  // A non-zero options.diagnoser.delta that disagrees with the adopted
  // partition's certified bound used to be silently ignored; it now throws
  // before any lane is built.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);  // certifies delta = 7
  BatchOptions conflicting;
  conflicting.diagnoser.delta = 3;
  EXPECT_THROW(BatchDiagnoser(inst.graph, sequential.partition(), conflicting),
               std::invalid_argument);
  BatchOptions agreeing;
  agreeing.diagnoser.delta = 7;
  EXPECT_NO_THROW(BatchDiagnoser(inst.graph, sequential.partition(), agreeing));
}

TEST(BatchDiagnoser, AdoptingPathRejectsMismatchedRule) {
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);  // calibrated under kSpread
  BatchOptions mismatched;
  mismatched.diagnoser.rule = ParentRule::kLeastFirst;
  EXPECT_THROW(BatchDiagnoser(inst.graph, sequential.partition(), mismatched),
               std::invalid_argument);
}

TEST(BatchDiagnoser, NullOracleRejected) {
  test::Instance inst("hypercube 7");
  BatchDiagnoser engine(*inst.topo, inst.graph);
  EXPECT_THROW((void)engine.diagnose_all({nullptr}), std::invalid_argument);
}

TEST(BatchDiagnoser, OracleOverAnotherGraphShapeIsRejected) {
  // Two strays fed to a hypercube 7 solver: a hypercube 5 syndrome, and
  // one over hypercube 7 minus an edge, which only its minimum degree
  // tells apart. Every entry point refuses each, alone and after 63
  // matched tables, with both shapes named, before reading a single
  // result.
  test::Instance q7("hypercube 7");
  test::Instance q5("hypercube 5");
  const Graph cut = test::without_edge(q7.graph, 126, 127);
  Diagnoser solver(*q7.topo, q7.graph);
  const TableTestBatch matched = make_table_batch(q7, solver.delta(), 63);
  const TableTestBatch small = make_table_batch(q5, 3, 1);
  const Syndrome cut_syndrome = generate_syndrome(
      cut, FaultSet(cut.num_nodes(), {}), FaultyBehavior::kRandom, 1);
  const TableOracle cut_oracle(cut, cut_syndrome);
  const std::string solver_shape =
      ", but the solver's graph has 128 nodes of degree 7";
  const struct {
    const TableOracle& oracle;
    std::string shape;
  } strays[] = {{small.oracles[0], "32 nodes of degree 5"},
                {cut_oracle, "128 nodes of degree 6..7"}};

  for (const auto& entry : strays) {
    SCOPED_TRACE(entry.shape);
    const TableOracle& stray = entry.oracle;
    const std::string reason =
        "the oracle addresses a graph of " + entry.shape + solver_shape;
    auto expect_rejected = [&](auto&& call, const char* who) {
      try {
        call();
        ADD_FAILURE() << who << " accepted an oracle over another graph";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
            << who << ": " << e.what();
      }
    };
    std::vector<const TableOracle*> lanes;
    std::vector<const SyndromeOracle*> batch;
    for (const TableOracle& o : matched.oracles) {
      lanes.push_back(&o);
      batch.push_back(&o);
    }
    lanes.push_back(&stray);
    batch.push_back(&stray);

    expect_rejected([&] { (void)solver.diagnose(stray); }, "diagnose");
    expect_rejected([&] { (void)solver.diagnose_cohort({&stray}); },
                    "diagnose_cohort alone");
    expect_rejected([&] { (void)solver.diagnose_cohort(lanes); },
                    "diagnose_cohort");
    expect_rejected(
        [&] {
          BitSlicedOracle sliced(q7.graph);
          (void)sliced.add_lane(stray);
        },
        "add_lane alone");
    expect_rejected(
        [&] {
          BitSlicedOracle sliced(q7.graph);
          for (const TableOracle* lane : lanes) (void)sliced.add_lane(*lane);
        },
        "add_lane");
    BatchDiagnoser whole(*q7.topo, q7.graph);
    expect_rejected(
        [&] {
          (void)whole.diagnose_all(std::vector<const SyndromeOracle*>{&stray});
        },
        "diagnose_all alone");
    expect_rejected([&] { (void)whole.diagnose_all(batch); }, "diagnose_all");
    EXPECT_EQ(stray.lookups(), 0u);
  }
}

TEST(CohortPlanner, CutsEveryRunIntoNearEqualOrderedCohorts) {
  // One run of n requests, n = 0..200: every index lands exactly once,
  // request order holds within and across cohorts, and cohort widths lie
  // in [32, 64] and differ by at most one. Below 64 nothing forms.
  for (std::size_t n = 0; n <= 200; ++n) {
    SCOPED_TRACE(n);
    const CohortPlan plan = plan_cohorts(std::vector<std::size_t>(n, 0));
    if (n < BitSlicedOracle::kMaxLanes) {
      EXPECT_TRUE(plan.cohorts.empty());
      EXPECT_EQ(plan.scalar.size(), n);
    } else {
      EXPECT_TRUE(plan.scalar.empty());
      EXPECT_EQ(plan.cohorts.size(), (n + 63) / 64);
    }
    std::vector<std::size_t> seen = plan.scalar;
    std::size_t narrowest = SIZE_MAX;
    std::size_t widest = 0;
    for (const std::vector<std::size_t>& cohort : plan.cohorts) {
      narrowest = std::min(narrowest, cohort.size());
      widest = std::max(widest, cohort.size());
      seen.insert(seen.end(), cohort.begin(), cohort.end());
    }
    if (!plan.cohorts.empty()) {
      EXPECT_GE(narrowest, 32u);
      EXPECT_LE(widest, 64u);
      EXPECT_LE(widest - narrowest, 1u);
    }
    // Concatenated in plan order, the indices are exactly 0..n-1.
    std::vector<std::size_t> expected(n);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(seen, expected);
  }
}

TEST(CohortPlanner, RunsStaySeparateAndUnrunRequestsStayScalar) {
  // Two interleaved runs (65 and 63 requests) and some requests with no
  // run: the 65-run makes two cohorts, the 63-run and the rest stay
  // scalar.
  std::vector<std::size_t> run_of;
  for (std::size_t i = 0; i < 160; ++i) {
    run_of.push_back(i % 5 == 4 ? kNoRun : i % 2 == 0 ? 3 : 7);
  }
  // Run 3 holds the even indices not ≡ 4 (mod 5): 64 of them; run 7 the
  // odd ones: 64. Move one request from run 7 to run 3.
  run_of[1] = 3;
  const CohortPlan plan = plan_cohorts(run_of);
  ASSERT_EQ(plan.cohorts.size(), 2u);
  EXPECT_EQ(plan.cohorts[0].size(), 33u);
  EXPECT_EQ(plan.cohorts[1].size(), 32u);
  EXPECT_LT(plan.cohorts[0].back(), plan.cohorts[1].front());
  for (const std::vector<std::size_t>& cohort : plan.cohorts) {
    for (const std::size_t i : cohort) EXPECT_EQ(run_of[i], 3u) << i;
    EXPECT_TRUE(std::is_sorted(cohort.begin(), cohort.end()));
  }
  EXPECT_EQ(plan.scalar.size(), 160u - 65u);
  EXPECT_TRUE(std::is_sorted(plan.scalar.begin(), plan.scalar.end()));
  for (const std::size_t i : plan.scalar) EXPECT_NE(run_of[i], 3u) << i;
}

}  // namespace
}  // namespace mmdiag
